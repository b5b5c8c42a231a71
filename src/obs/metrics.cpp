#include "obs/metrics.hpp"

#include "support/error.hpp"

namespace dls::obs {
namespace {

// atomic<double> has no fetch_add before C++20 on all library versions
// we target; a CAS loop is equivalent and the sites are cold.
void atomic_add(std::atomic<double>& slot, double delta) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

struct ShardCache {
  const Registry* owner = nullptr;
  std::uint64_t generation = 0;
  void* shard = nullptr;
};
thread_local ShardCache t_shard_cache;

std::atomic<std::uint64_t> g_registry_generation{0};

}  // namespace

const char* to_string(MetricType type) {
  switch (type) {
    case MetricType::Counter: return "counter";
    case MetricType::Gauge: return "gauge";
    case MetricType::Histogram: return "histogram";
  }
  return "unknown";
}

const std::vector<double>& default_time_buckets() {
  static const std::vector<double> buckets = {
      1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0};
  return buckets;
}

Registry::Registry() : Registry(Limits()) {}

Registry::Registry(Limits limits)
    : limits_(limits),
      generation_(g_registry_generation.fetch_add(1, std::memory_order_relaxed) +
                  1),
      gauges_(limits.max_gauges) {}

Registry::Shard& Registry::local_shard() {
  if (t_shard_cache.owner == this &&
      t_shard_cache.generation == generation_) {
    return *static_cast<Shard*>(t_shard_cache.shard);
  }
  std::scoped_lock lock(mutex_);
  const auto tid = std::this_thread::get_id();
  auto [it, inserted] = shard_of_.try_emplace(tid, nullptr);
  if (inserted) {
    shards_.emplace_back(limits_);
    it->second = &shards_.back();
  }
  t_shard_cache = {this, generation_, it->second};
  return *it->second;
}

const Registry::Meta& Registry::register_series(MetricType type,
                                                const std::string& name,
                                                const std::string& help,
                                                const std::string& labels,
                                                const std::vector<double>* bounds) {
  std::scoped_lock lock(mutex_);
  auto key = std::make_pair(name, labels);
  if (auto it = by_key_.find(key); it != by_key_.end()) {
    const Meta& meta = metas_[it->second];
    if (meta.type != type)
      throw Error("obs: metric '" + name + "' re-registered with a different type");
    return meta;
  }
  // Same family name, different labels: the type must agree or the
  // exporter would emit conflicting TYPE headers.
  for (const Meta& meta : metas_) {
    if (meta.name == name && meta.type != type)
      throw Error("obs: metric family '" + name + "' mixes types");
  }
  Meta meta;
  meta.name = name;
  meta.labels = labels;
  meta.help = help;
  meta.type = type;
  switch (type) {
    case MetricType::Counter:
      require(next_counter_ < limits_.max_counters, "obs: counter capacity exceeded");
      meta.index = next_counter_++;
      break;
    case MetricType::Gauge:
      require(next_gauge_ < limits_.max_gauges, "obs: gauge capacity exceeded");
      meta.index = next_gauge_++;
      break;
    case MetricType::Histogram: {
      require(bounds != nullptr && !bounds->empty(), "obs: histogram needs bounds");
      for (std::size_t i = 1; i < bounds->size(); ++i) {
        require((*bounds)[i - 1] < (*bounds)[i], "obs: histogram bounds must increase");
      }
      require(next_histogram_ < limits_.max_histograms,
              "obs: histogram capacity exceeded");
      const auto want = static_cast<std::uint32_t>(bounds->size() + 1);  // +Inf
      require(next_bucket_ + want <= limits_.max_hist_buckets,
              "obs: histogram bucket capacity exceeded");
      meta.index = next_histogram_++;
      meta.bucket_base = next_bucket_;
      meta.bounds = *bounds;
      next_bucket_ += want;
      break;
    }
  }
  by_key_.emplace(std::move(key), static_cast<std::uint32_t>(metas_.size()));
  metas_.push_back(std::move(meta));
  return metas_.back();
}

Counter Registry::counter(const std::string& name, const std::string& help,
                          const std::string& labels) {
  const Meta& meta = register_series(MetricType::Counter, name, help, labels, nullptr);
  return Counter(this, meta.index);
}

Gauge Registry::gauge(const std::string& name, const std::string& help,
                      const std::string& labels) {
  const Meta& meta = register_series(MetricType::Gauge, name, help, labels, nullptr);
  return Gauge(this, meta.index);
}

Histogram Registry::histogram(const std::string& name, const std::string& help,
                              const std::vector<double>& bounds,
                              const std::string& labels) {
  const Meta& meta = register_series(MetricType::Histogram, name, help, labels, &bounds);
  return Histogram(this, &meta.bounds, meta.index, meta.bucket_base);
}

void Counter::inc(std::uint64_t n) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->local_shard().counters[index_].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  if (reg_ == nullptr) return 0;
  std::scoped_lock lock(reg_->mutex_);
  std::uint64_t total = 0;
  for (const auto& shard : reg_->shards_) {
    total += shard.counters[index_].load(std::memory_order_relaxed);
  }
  return total;
}

void Gauge::set(double v) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->gauges_[index_].store(v, std::memory_order_relaxed);
}

void Gauge::add(double delta) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  atomic_add(reg_->gauges_[index_], delta);
}

double Gauge::value() const {
  if (reg_ == nullptr) return 0.0;
  return reg_->gauges_[index_].load(std::memory_order_relaxed);
}

void Histogram::observe(double v) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  std::uint32_t bucket = 0;
  while (bucket < bounds_->size() && v > (*bounds_)[bucket]) ++bucket;
  Registry::Shard& shard = reg_->local_shard();
  shard.hist_counts[bucket_base_ + bucket].fetch_add(1, std::memory_order_relaxed);
  atomic_add(shard.hist_sums[slot_], v);
}

RegistrySnapshot Registry::snapshot() const {
  std::scoped_lock lock(mutex_);
  RegistrySnapshot snap;
  snap.series.reserve(metas_.size());
  for (const Meta& meta : metas_) {
    SeriesSnapshot s;
    s.name = meta.name;
    s.labels = meta.labels;
    s.help = meta.help;
    s.type = meta.type;
    switch (meta.type) {
      case MetricType::Counter:
        for (const auto& shard : shards_) {
          s.counter += shard.counters[meta.index].load(std::memory_order_relaxed);
        }
        break;
      case MetricType::Gauge:
        s.gauge = gauges_[meta.index].load(std::memory_order_relaxed);
        break;
      case MetricType::Histogram: {
        s.bounds = meta.bounds;
        s.buckets.assign(meta.bounds.size() + 1, 0);
        for (const auto& shard : shards_) {
          for (std::size_t b = 0; b < s.buckets.size(); ++b) {
            s.buckets[b] +=
                shard.hist_counts[meta.bucket_base + b].load(std::memory_order_relaxed);
          }
          s.sum += shard.hist_sums[meta.index].load(std::memory_order_relaxed);
        }
        for (std::uint64_t c : s.buckets) s.count += c;
        break;
      }
    }
    snap.series.push_back(std::move(s));
  }
  return snap;
}

std::size_t Registry::shard_count() const {
  std::scoped_lock lock(mutex_);
  return shards_.size();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace dls::obs
