#include "check/rbd.h"

#include <stdexcept>
#include <utility>

namespace rascal::check {

namespace {

enum class BlockKind { kSeries, kParallel, kKofN };

class ComponentBlock final : public Block {
 public:
  ComponentBlock(std::string name, double failure_rate, double repair_rate)
      : name_(std::move(name)),
        failure_rate_(failure_rate),
        repair_rate_(repair_rate) {
    if (!(failure_rate > 0.0) || !(repair_rate > 0.0)) {
      throw std::invalid_argument("rbd::component: rates must be > 0");
    }
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double availability() const override {
    return repair_rate_ / (failure_rate_ + repair_rate_);
  }

 private:
  std::string name_;
  double failure_rate_;
  double repair_rate_;
};

class CompositeBlock final : public Block {
 public:
  CompositeBlock(BlockKind kind, std::string name, std::size_t k,
                 std::vector<BlockPtr> children)
      : kind_(kind), name_(std::move(name)), k_(k),
        children_(std::move(children)) {
    if (children_.empty()) {
      throw std::invalid_argument("rbd: composite block with no children");
    }
    for (const BlockPtr& child : children_) {
      if (!child) {
        throw std::invalid_argument("rbd: null child block");
      }
    }
    if (kind_ == BlockKind::kKofN &&
        (k_ == 0 || k_ > children_.size())) {
      throw std::invalid_argument("rbd::k_of_n: requires 1 <= k <= n");
    }
  }
  [[nodiscard]] const std::string& name() const override { return name_; }

  [[nodiscard]] double availability() const override {
    switch (kind_) {
      case BlockKind::kSeries: {
        double a = 1.0;
        for (const BlockPtr& child : children_) a *= child->availability();
        return a;
      }
      case BlockKind::kParallel: {
        double all_down = 1.0;
        for (const BlockPtr& child : children_) {
          all_down *= 1.0 - child->availability();
        }
        return 1.0 - all_down;
      }
      case BlockKind::kKofN: {
        // DP over the distribution of the number of up children.
        std::vector<double> up_count{1.0};
        for (const BlockPtr& child : children_) {
          const double a = child->availability();
          std::vector<double> next(up_count.size() + 1, 0.0);
          for (std::size_t u = 0; u < up_count.size(); ++u) {
            next[u + 1] += up_count[u] * a;
            next[u] += up_count[u] * (1.0 - a);
          }
          up_count = std::move(next);
        }
        double total = 0.0;
        for (std::size_t u = k_; u < up_count.size(); ++u) {
          total += up_count[u];
        }
        return total;
      }
    }
    throw std::logic_error("rbd: unreachable");
  }

 private:
  BlockKind kind_;
  std::string name_;
  std::size_t k_;
  std::vector<BlockPtr> children_;
};

}  // namespace

BlockPtr component(std::string name, double failure_rate,
                   double repair_rate) {
  return std::make_shared<ComponentBlock>(std::move(name), failure_rate,
                                          repair_rate);
}

BlockPtr series(std::string name, std::vector<BlockPtr> children) {
  return std::make_shared<CompositeBlock>(BlockKind::kSeries,
                                          std::move(name), 0,
                                          std::move(children));
}

BlockPtr parallel(std::string name, std::vector<BlockPtr> children) {
  return std::make_shared<CompositeBlock>(BlockKind::kParallel,
                                          std::move(name), 0,
                                          std::move(children));
}

BlockPtr k_of_n(std::string name, std::size_t k,
                std::vector<BlockPtr> children) {
  return std::make_shared<CompositeBlock>(BlockKind::kKofN, std::move(name),
                                          k, std::move(children));
}

}  // namespace rascal::check
