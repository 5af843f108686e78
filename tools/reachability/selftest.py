#!/usr/bin/env python3
"""Self-test for audit.py that needs no audit build.

Canned `nm` listings stand in for the library archives and the shipped
binaries: a mock nm prints the listing file it is given.  The test
asserts the audit verdict for a clean tree, a new unreached function,
stale allowlist entries (now reached, or no longer exported), the
retired reasons and a reason that names no test.
"""

import pathlib
import stat
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent

MOCK_NM = r'''#!/usr/bin/env python3
import sys
sys.stdout.write(open(sys.argv[-1]).read())
'''

ARCHIVE = """\
lib.o:
0000000000000000 T rascal::shipped()
0000000000000010 T rascal::helper(int)
0000000000000020 t rascal::(anonymous namespace)::local()
0000000000000030 W rascal::inline_thing()
"""

BINARY = """\
0000000000001000 T main
0000000000001010 T rascal::shipped()
"""

ALLOWLIST = "rascal::helper(int)  # reference: Fake.UsesHelper\n"


def write_executable(path, text):
    path.write_text(text)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)


def run_audit(tmp, mock, archive, binary, allowlist):
    (tmp / "archive.txt").write_text(archive)
    (tmp / "binary.txt").write_text(binary)
    (tmp / "allowlist.txt").write_text(allowlist)
    return subprocess.run(
        [sys.executable, str(HERE / "audit.py"), "check",
         "--nm", str(mock), "--source-root", str(tmp),
         "--allowlist", str(tmp / "allowlist.txt"),
         "--archive", str(tmp / "archive.txt"),
         "--binary", str(tmp / "binary.txt")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def expect(name, proc, want_rc, want_substr):
    ok = proc.returncode == want_rc and want_substr in proc.stdout
    print(f"{'ok' if ok else 'FAIL'}: {name}")
    if not ok:
        print(f"  want rc={want_rc} containing '{want_substr}'")
        print(f"  got rc={proc.returncode}, output:")
        for line in proc.stdout.splitlines():
            print(f"    {line}")
    return ok


def main():
    results = []
    with tempfile.TemporaryDirectory(prefix="rascal-reach-selftest-") as d:
        tmp = pathlib.Path(d)
        mock = tmp / "mock-nm"
        write_executable(mock, MOCK_NM)
        (tmp / "tests").mkdir()
        (tmp / "tests" / "test_fake.cpp").write_text(
            "TEST(Fake, UsesHelper) { rascal::helper(1); }\n")

        results.append(expect(
            "clean tree passes and prints the allowlist",
            run_audit(tmp, mock, ARCHIVE, BINARY, ALLOWLIST),
            0, "rascal::helper(int)  # reference: Fake.UsesHelper"))

        results.append(expect(
            "new unreached function fails",
            run_audit(tmp, mock,
                      ARCHIVE + "0000000000000040 T rascal::orphan()\n",
                      BINARY, ALLOWLIST),
            1, "unreached and not allowlisted: rascal::orphan()"))

        results.append(expect(
            "allowlisted function that a binary now reaches fails",
            run_audit(tmp, mock, ARCHIVE,
                      BINARY + "0000000000001020 T rascal::helper(int)\n",
                      ALLOWLIST),
            1, "allowlisted but now reached: rascal::helper(int)"))

        results.append(expect(
            "allowlisted function that no longer exists fails",
            run_audit(tmp, mock, ARCHIVE.replace(
                "0000000000000010 T rascal::helper(int)\n", ""),
                      BINARY, ALLOWLIST),
            1, "allowlisted but no longer exported: rascal::helper(int)"))

        results.append(expect(
            "the retired roadmap-2 reason fails",
            run_audit(tmp, mock, ARCHIVE, BINARY,
                      "rascal::helper(int)  # roadmap-2\n"),
            1, "bad reason 'roadmap-2'"))

        results.append(expect(
            "the retired test-api reason fails",
            run_audit(tmp, mock, ARCHIVE, BINARY,
                      "rascal::helper(int)  # test-api: Fake.UsesHelper\n"),
            1, "bad reason 'test-api: Fake.UsesHelper'"))

        results.append(expect(
            "reason naming no test fails",
            run_audit(tmp, mock, ARCHIVE, BINARY,
                      "rascal::helper(int)  # reference: Fake.Missing\n"),
            1, "reason names no test under tests/"))

    if all(results):
        print(f"selftest: {len(results)} assertions passed")
        return 0
    print("selftest: FAILURES present")
    return 1


if __name__ == "__main__":
    sys.exit(main())
