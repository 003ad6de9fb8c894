// End-to-end benchmark of the lsmstats engine: one named workload per
// process, its outputs checked against a model the benchmark keeps itself.
//
//   perfbench --workload=<ingest|query|churn> --seed=<n> --seconds=<s>
//             --trace=<0|1> --dir=<data dir> [--trace_out=<path>] [--small]
//
// Every workload runs the same phases, weighted differently (README.md has
// the make-up of each):
//
//   setup     Open + Load of a bulkloaded base (plus a feed tail of inserts
//             in `query`), kSetupRepeats times into fresh directories.
//   writes    Insert/Update/Delete in one closed loop: a fixed number of
//             operations scaled by --seconds, so flush and merge points
//             repeat exactly from run to run. In `churn` estimates, Gets and
//             counts run between the batches of writes.
//   reads     interleaved rounds of Gets, Dataset::CountRange and
//             CardinalityEstimator estimates until their share of --seconds
//             has passed (`ingest`, `query`).
//   reopen    close, then Dataset::Open with WAL replay of the unflushed
//             tail, kReopenRepeats times; then every acknowledged record is
//             checked.
//   accuracy  at a quiescent point (after Dataset::Flush): normalized L1
//             error of the estimates against the model, space and synopsis
//             footprint.
//
// Maintenance runs synchronously (no BackgroundScheduler, no MemoryArbiter)
// and the client is one thread, so the engine's work depends only on the
// seed and --seconds. With --trace=1 the layer probes of probes.h are
// installed and the per-layer metrics are printed instead of the end-to-end
// ones. The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// A failed output check prints the check's name to stderr and exits 3.

#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "db/dataset.h"
#include "lsm/merge_policy.h"
#include "perfbench/probes.h"
#include "stats/cardinality_estimator.h"
#include "workload/distribution.h"
#include "workload/query_workload.h"
#include "workload/tweets.h"
#include "workload/worldcup.h"

extern char** environ;

namespace lsmstats::perfbench {
namespace {

// All workloads share these.
constexpr uint64_t kBlockCacheMb = 8;
constexpr size_t kSynopsisBudget = 256;
constexpr int kSetupRepeats = 3;
constexpr int kReopenRepeats = 3;
constexpr size_t kPayloadPool = 1024;
constexpr size_t kWriteBatch = 256;
constexpr int64_t kTimestampBase = 1528000000000;
// The range queries are a fixed set per workload, like a benchmark's query
// list; the seed draws the data, the keys and the order of operations.
constexpr uint64_t kQuerySeed = 7001;
// The whole-domain estimate must be this close to the live count; the
// tolerance tests/synopsis_property_test.cc uses at budgets of 64 or more.
constexpr double kWholeDomainTolerance = 0.02;

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string dir;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--dir") {
      args.dir = value;
    } else if (arg == "--trace_out") {
      args.trace_out = value;
    } else if (arg == "--small") {
      args.small = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (args.workload != "ingest" && args.workload != "query" &&
      args.workload != "churn") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    std::exit(2);
  }
  if (args.dir.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr, "perfbench: --dir and --seconds > 0 are required\n");
    std::exit(2);
  }
  return args;
}

// ---------------------------------------------------------------- checks

[[noreturn]] void CheckFailed(const std::string& check,
                              const std::string& detail) {
  std::fprintf(stderr, "perfbench: check failed: %s: %s\n", check.c_str(),
               detail.c_str());
  std::exit(3);
}

void Require(bool ok, const char* check, const std::string& detail) {
  if (!ok) CheckFailed(check, detail);
}

// Operations attempted and failed in the measured phases.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Counts one operation; the first few failures are printed.
bool Attempt(OpCounts* ops, const Status& status, const char* what) {
  ++ops->attempted;
  if (status.ok()) return true;
  if (ops->failed++ < 5) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
  }
  return false;
}

void CheckOk(const Status& status, const char* what) {
  Require(status.ok(), what, status.ToString());
}

// ---------------------------------------------------------------- stats

// `value` rounded to a whole number of `unit`s, at least one.
uint64_t RoundTo(double value, uint64_t unit) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(
                                   value / static_cast<double>(unit)))) *
         unit;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile of `sorted` (ascending), p in (0, 100].
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// Latency samples and the busy (CPU) time of one kind of operation.
struct Timing {
  std::vector<double> lat_us;
  int64_t busy_ns = 0;
  uint64_t ops = 0;

  void Add(int64_t wall_ns) {
    lat_us.push_back(static_cast<double>(wall_ns) / 1000.0);
    ++ops;
  }
  double PerSecond() const {
    return busy_ns > 0 ? static_cast<double>(ops) * 1e9 /
                             static_cast<double>(busy_ns)
                       : 0;
  }
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    Require(std::isfinite(value), "metric_is_finite", name);
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", e.value);
      out += (i == 0 ? "" : ", ") + std::string("\"") + e.name +
             "\": {\"value\": " + value + ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return hex;
    }
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// ------------------------------------------------------------------ model

// The benchmark's own record of every acknowledged write: live records by
// primary key, plus per indexed field the multiset of live values.
class Model {
 public:
  struct Rec {
    std::vector<int64_t> fields;
    uint32_t payload = 0;  // index into payloads
  };

  Model(const Schema& schema, std::vector<std::string> payloads)
      : payloads_(std::move(payloads)) {
    for (size_t i = 0; i < schema.field_count(); ++i) {
      if (schema.field(i).indexed) indexed_.push_back(i);
    }
    counts_.resize(indexed_.size());
  }

  void Put(int64_t pk, Rec rec) {
    // Fresh keys mostly arrive in increasing order; append those in O(1).
    auto it = live_.empty() || pk > live_.rbegin()->first
                  ? live_.emplace_hint(live_.end(), pk, Rec{})
                  : live_.try_emplace(pk).first;
    if (!it->second.fields.empty()) Uncount(it->second);
    it->second = std::move(rec);
    for (size_t s = 0; s < indexed_.size(); ++s) {
      ++counts_[s][it->second.fields[indexed_[s]]];
    }
  }

  void Erase(int64_t pk) {
    auto it = live_.find(pk);
    if (it == live_.end()) return;
    Uncount(it->second);
    live_.erase(it);
  }

  const Rec* Find(int64_t pk) const {
    auto it = live_.find(pk);
    return it == live_.end() ? nullptr : &it->second;
  }

  // Live records whose `slot`-th indexed field lies in [lo, hi].
  uint64_t Count(size_t slot, int64_t lo, int64_t hi) const {
    uint64_t n = 0;
    for (auto it = counts_[slot].lower_bound(lo);
         it != counts_[slot].end() && it->first <= hi; ++it) {
      n += it->second;
    }
    return n;
  }

  Record ToRecord(int64_t pk, const Rec& rec) const {
    return Record{pk, rec.fields, payloads_[rec.payload]};
  }

  // The record's user bytes: its key, its fields and its payload.
  uint64_t UserBytes(const Rec& rec) const {
    return 8 + 8 * rec.fields.size() + payloads_[rec.payload].size();
  }
  uint64_t LiveUserBytes() const {
    uint64_t bytes = 0;
    for (const auto& [pk, rec] : live_) bytes += UserBytes(rec);
    return bytes;
  }

  bool Matches(const Rec& rec, const Record& got) const {
    return got.fields == rec.fields && got.payload == payloads_[rec.payload];
  }

  const std::map<int64_t, Rec>& live() const { return live_; }
  const std::vector<size_t>& indexed() const { return indexed_; }

 private:
  void Uncount(const Rec& rec) {
    for (size_t s = 0; s < indexed_.size(); ++s) {
      auto c = counts_[s].find(rec.fields[indexed_[s]]);
      if (--c->second == 0) counts_[s].erase(c);
    }
  }

  std::vector<std::string> payloads_;
  std::vector<size_t> indexed_;
  std::map<int64_t, Rec> live_;
  std::vector<std::map<int64_t, uint64_t>> counts_;
};

// ------------------------------------------------------------ workloads

// The make-up of one workload; see README.md for the reasons.
struct Config {
  std::string name;
  Schema schema;
  SynopsisType synopsis = SynopsisType::kWavelet;
  uint64_t memtable_entries = 8192;
  // Reads (ingest, query): their share of --seconds, run as interleaved
  // rounds of `round_gets` Gets, `round_counts` counts and
  // `round_estimate_passes` passes of estimates over the query list, so
  // that each kind of read samples the whole period.
  double read_share = 0;
  size_t round_gets = 0;
  size_t round_counts = 0;
  size_t round_estimate_passes = 0;
};

struct RangeQ {
  size_t slot;  // indexed-field slot
  int64_t lo;
  int64_t hi;
};

// Fixed-length and random ranges over every indexed field, each field's
// ranges drawn over the power-of-two domain padded around its live values.
std::vector<RangeQ> MakeQueries(const Model& model, size_t per_type) {
  std::vector<RangeQ> queries;
  for (size_t s = 0; s < model.indexed().size(); ++s) {
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    for (const auto& [pk, rec] : model.live()) {
      lo = std::min(lo, rec.fields[model.indexed()[s]]);
      hi = std::max(hi, rec.fields[model.indexed()[s]]);
    }
    const ValueDomain domain = ValueDomain::Padded(lo, hi);
    const uint64_t fixed =
        std::max<uint64_t>(1, (domain.MaxPosition() >> 5) + 1);
    for (QueryType type : {QueryType::kFixedLength, QueryType::kRandom}) {
      QueryGenerator gen(type, domain, fixed,
                         kQuerySeed + s * 10 + static_cast<uint64_t>(type));
      for (size_t i = 0; i < per_type; ++i) {
        const RangeQuery q = gen.Next();
        queries.push_back({s, q.lo, q.hi});
      }
    }
  }
  return queries;
}

// Probes installed for the traced run; they outlive every dataset.
struct Tracer {
  SpanRecorder spans;
  CountingEnv env{Env::Default(), &spans};
  LsmCounters lsm;
  std::vector<std::unique_ptr<TreeProbe>> probes;
};

// One open dataset with its statistics catalog and estimator.
class Instance {
 public:
  Instance(Config config, std::string dir, Tracer* tracer)
      : config_(std::move(config)), dir_(std::move(dir)), tracer_(tracer),
        timing_(&local_, tracer != nullptr ? &tracer->spans : nullptr) {
    CardinalityEstimator::Options options;
    options.merged_budget = kSynopsisBudget;
    estimator_ = std::make_unique<CardinalityEstimator>(&catalog_, options);
  }

  void Open() {
    DatasetOptions o;
    o.directory = dir_;
    o.name = config_.name;
    o.schema = config_.schema;
    o.synopsis_type = config_.synopsis;
    o.synopsis_budget = kSynopsisBudget;
    o.memtable_max_entries = config_.memtable_entries;
    o.merge_policy = std::make_shared<TieredMergePolicy>();
    o.sink = tracer_ != nullptr ? static_cast<SynopsisSink*>(&timing_)
                                : &local_;
    o.env = tracer_ != nullptr ? &tracer_->env : nullptr;
    o.compression = "none";
    o.block_cache_mb = kBlockCacheMb;
    o.wal = true;
    o.wal_sync_mode = WalSyncMode::kFlushOnly;
    o.wal_group_commit = false;
    o.min_free_bytes = 0;
    auto db = Dataset::Open(std::move(o));
    CheckOk(db.status(), "Dataset::Open");
    db_ = std::move(db).value();
    if (tracer_ == nullptr) return;
    auto attach = [&](LsmTree* tree, SynopsisConfig synopsis) {
      tracer_->probes.push_back(std::make_unique<TreeProbe>(
          &tracer_->spans, &tracer_->lsm, std::move(synopsis)));
      tree->AddListener(tracer_->probes.back().get());
    };
    attach(db_->primary(), SynopsisConfig{});
    for (size_t field : config_.schema.IndexedFields()) {
      const FieldDef& def = config_.schema.field(field);
      SynopsisConfig synopsis;
      synopsis.type = config_.synopsis;
      synopsis.budget = kSynopsisBudget;
      synopsis.domain = def.EffectiveDomain();
      attach(db_->secondary(def.name), synopsis);
    }
  }

  void Close() { db_.reset(); }

  Dataset* db() { return db_.get(); }
  const std::string& dir() const { return dir_; }
  CardinalityEstimator* estimator() { return estimator_.get(); }
  const StatisticsCatalog& catalog() const { return catalog_; }
  const TimingSink& timing_sink() const { return timing_; }
  SpanRecorder* spans() {
    return tracer_ != nullptr ? &tracer_->spans : nullptr;
  }
  const std::string& field_name(size_t slot) const {
    return config_.schema.field(config_.schema.IndexedFields()[slot]).name;
  }

 private:
  const Config config_;
  std::string dir_;
  Tracer* tracer_;
  StatisticsCatalog catalog_;
  LocalCatalogSink local_{&catalog_};
  TimingSink timing_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  // Declared last: closed before the catalog and sinks it publishes to.
  std::unique_ptr<Dataset> db_;
};

// The layer counters at one instant; per-layer metrics are differences
// between the start and the end of the measured phases.
struct Snapshot {
  int64_t wall_ns = 0;
  CountingEnv::Counters env;
  CountingEnv::Counters wal;
  uint64_t dir_syncs = 0;
  int64_t dir_sync_ns = 0;
  LsmCounters lsm;
  BlockCache::Stats cache;
  uint64_t wal_records = 0;
  uint64_t wal_syncs = 0;
  uint64_t merge_bytes_written = 0;
  uint64_t publishes = 0;
  int64_t publish_ns = 0;
  int64_t root_ns = 0;
  int64_t probe_ns = 0;
  int64_t stall_ns = 0;
  // Shape of the trees and the catalog.
  uint64_t anti_matter = 0;
  uint64_t components = 0;
  uint64_t bloom_bytes = 0;
  uint64_t catalog_entries = 0;
};

Snapshot TakeSnapshot(Instance* inst, Tracer* tracer) {
  Snapshot s;
  s.wall_ns = NowNs();
  Dataset* db = inst->db();
  if (db->block_cache() != nullptr) s.cache = db->block_cache()->GetStats();
  s.wal_records = db->WalRecordsLogged();
  s.wal_syncs = db->WalSyncCount();
  for (const auto& [name, health] : db->Health().trees) {
    s.merge_bytes_written += health.merge_bytes_written;
    for (const LevelStats& level : health.levels) {
      s.anti_matter += level.anti_matter;
      s.components += level.components;
      s.bloom_bytes += level.bloom_bytes;
    }
  }
  for (size_t slot = 0; slot < db->schema().IndexedFields().size(); ++slot) {
    s.catalog_entries +=
        inst->catalog().EntryCount(db->StatsKey(inst->field_name(slot)));
  }
  s.publishes = inst->timing_sink().publishes();
  s.publish_ns = inst->timing_sink().publish_ns();
  if (tracer != nullptr) {
    s.env = tracer->env.Total();
    s.wal = tracer->env.counters(CountingEnv::kWal);
    s.dir_syncs = tracer->env.dir_syncs();
    s.dir_sync_ns = tracer->env.dir_sync_ns();
    s.lsm = tracer->lsm;
    s.root_ns = tracer->spans.root_ns();
    s.probe_ns = tracer->spans.probe_ns();
    s.stall_ns = tracer->spans.stall_ns();
  }
  return s;
}

// What one run measured, filled in phase by phase.
struct Run {
  const Args* args = nullptr;
  Tracer* tracer = nullptr;  // null in the timed run
  OpCounts ops;
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> reopen_s;
  Timing writes;
  Timing gets;
  Timing counts;
  Timing estimates;
  uint64_t user_bytes_written = 0;
  uint64_t estimate_hits = 0;
  uint64_t synopses_probed = 0;
  int64_t hit_ns = 0;
  int64_t rebuild_ns = 0;
  uint64_t wal_replay_bytes = 0;
  double estimate_l1 = 0;
  double space_amp = 0;
  double synopsis_kb = 0;
  Snapshot start;
  Snapshot end;
  // Span totals over the measured phases, and the share of the main timed
  // phase's wall time (less probe time) that root spans account for.
  std::map<std::string, SpanRecorder::Totals> span_totals;
  double span_coverage = 0;
};

// Marks the start of the measured phases: layer counters are taken as
// differences from here.
void StartMeasuring(Run* run, Instance* inst) {
  if (run->tracer != nullptr) run->tracer->spans.ResetTotals();
  run->start = TakeSnapshot(inst, run->tracer);
}

// Marks the end of the measured phases.
void StopMeasuring(Run* run, Instance* inst) {
  run->end = TakeSnapshot(inst, run->tracer);
  if (run->tracer != nullptr) run->span_totals = run->tracer->spans.totals();
}

double Coverage(const Snapshot& a, const Snapshot& b) {
  const int64_t wall = (b.wall_ns - a.wall_ns) - (b.probe_ns - a.probe_ns);
  return wall > 0 ? static_cast<double>(b.root_ns - a.root_ns) /
                        static_cast<double>(wall)
                  : 0;
}

// ---------------------------------------------------------------- phases
//
// Operations of one kind run in batches. Each operation's latency is its
// wall time; a batch's busy time is the client thread's CPU time over the
// batch, so the per-second rates leave out what the machine, not the
// engine, decides: fsync waits on the data directory's device and time the
// virtual CPU was not scheduled. Outputs are checked against the model
// after the batch.

int64_t CpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Adds the thread's CPU time over its scope to `busy_ns`.
class CpuBatch {
 public:
  explicit CpuBatch(int64_t* busy_ns) : busy_ns_(busy_ns), start_(CpuNs()) {}
  ~CpuBatch() { *busy_ns_ += CpuNs() - start_; }
  CpuBatch(const CpuBatch&) = delete;
  CpuBatch& operator=(const CpuBatch&) = delete;

 private:
  int64_t* busy_ns_;
  int64_t start_;
};

struct Write {
  enum Kind { kInsert, kUpdate, kDelete };
  Kind kind = kInsert;
  Record record;  // for kDelete only record.pk is used
  uint64_t user_bytes = 0;
  bool ok = false;
};

void RunWrites(Run* run, Instance* inst, std::vector<Write>* batch) {
  Dataset* db = inst->db();
  CpuBatch cpu(&run->writes.busy_ns);
  for (Write& w : *batch) {
    ScopedSpan span(inst->spans(), "db.write");
    const int64_t start = NowNs();
    const Status status = w.kind == Write::kInsert   ? db->Insert(w.record)
                          : w.kind == Write::kUpdate ? db->Update(w.record)
                                                     : db->Delete(w.record.pk);
    run->writes.Add(NowNs() - start);
    w.ok = Attempt(&run->ops, status, "write");
    if (w.ok) run->user_bytes_written += w.user_bytes;
  }
}

// Gets of `keys`, each checked afterwards: the model's record, or NotFound.
void RunGets(Run* run, Instance* inst, const Model& model,
             const int64_t* keys, size_t n) {
  std::vector<StatusOr<Record>> got;
  got.reserve(n);
  {
    Dataset* db = inst->db();
    CpuBatch cpu(&run->gets.busy_ns);
    for (size_t i = 0; i < n; ++i) {
      ScopedSpan span(inst->spans(), "db.get");
      const int64_t start = NowNs();
      got.push_back(db->Get(keys[i]));
      run->gets.Add(NowNs() - start);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const Model::Rec* want = model.Find(keys[i]);
    if (want == nullptr) {
      ++run->ops.attempted;
      Require(!got[i].ok() && got[i].status().code() == StatusCode::kNotFound,
              "get_absent_is_not_found", "pk " + std::to_string(keys[i]));
    } else if (Attempt(&run->ops, got[i].status(), "get")) {
      Require(model.Matches(*want, got[i].value()), "get_matches_model",
              "pk " + std::to_string(keys[i]));
    }
  }
}

// CountRange over `queries`, each checked against the model.
void RunCounts(Run* run, Instance* inst, const Model& model,
               const RangeQ* queries, size_t n) {
  std::vector<StatusOr<uint64_t>> got;
  got.reserve(n);
  {
    CpuBatch cpu(&run->counts.busy_ns);
    for (size_t i = 0; i < n; ++i) {
      ScopedSpan span(inst->spans(), "db.count");
      const int64_t start = NowNs();
      got.push_back(inst->db()->CountRange(inst->field_name(queries[i].slot),
                                           queries[i].lo, queries[i].hi));
      run->counts.Add(NowNs() - start);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!Attempt(&run->ops, got[i].status(), "count")) continue;
    const RangeQ& q = queries[i];
    const uint64_t want = model.Count(q.slot, q.lo, q.hi);
    Require(got[i].value() == want, "count_range_matches_model",
            inst->field_name(q.slot) + " [" + std::to_string(q.lo) + ", " +
                std::to_string(q.hi) + "]: " + std::to_string(got[i].value()) +
                " vs " + std::to_string(want));
  }
}

// Estimates of `queries`, each finite and non-negative. Also counts which
// were served from the merged-synopsis cache and which rebuilt it.
void RunEstimates(Run* run, Instance* inst, const RangeQ* queries, size_t n) {
  std::vector<double> got(n);
  {
    CpuBatch cpu(&run->estimates.busy_ns);
    for (size_t i = 0; i < n; ++i) {
      CardinalityEstimator::QueryStats stats;
      ScopedSpan span(inst->spans(), "stats.estimate");
      const int64_t start = NowNs();
      got[i] = inst->estimator()->EstimateRangePartition(
          inst->db()->StatsKey(inst->field_name(queries[i].slot)),
          queries[i].lo, queries[i].hi, &stats);
      const int64_t ns = NowNs() - start;
      run->estimates.Add(ns);
      run->synopses_probed += stats.synopses_probed;
      if (stats.served_from_cache) {
        ++run->estimate_hits;
        run->hit_ns += ns;
      } else {
        run->rebuild_ns += ns;
      }
    }
  }
  for (double estimate : got) {
    ++run->ops.attempted;
    Require(std::isfinite(estimate) && estimate >= 0,
            "estimate_finite_nonnegative", std::to_string(estimate));
  }
}

// Interleaved rounds of Gets over `keys`, CountRange over `counts` and
// estimates over `queries`, after one untimed warm-up round, until the read
// share of --seconds has passed and the count list has been run a whole
// number of times.
void ReadPhases(Run* run, const Config& config, Instance* inst,
                const Model& model, const std::vector<int64_t>& keys,
                const std::vector<RangeQ>& counts,
                const std::vector<RangeQ>& queries) {
  const size_t get_rounds = keys.size() / config.round_gets;
  Run warmup;
  RunGets(&warmup, inst, model, keys.data(), config.round_gets);
  RunEstimates(&warmup, inst, queries.data(), queries.size());
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(run->args->seconds * config.read_share *
                                     1e9);
  size_t round = 0;
  size_t next_count = 0;
  do {
    RunGets(run, inst, model,
            keys.data() + (round % get_rounds) * config.round_gets,
            config.round_gets);
    RunCounts(run, inst, model, counts.data() + next_count,
              config.round_counts);
    next_count = (next_count + config.round_counts) % counts.size();
    for (size_t pass = 0; pass < config.round_estimate_passes; ++pass) {
      RunEstimates(run, inst, queries.data(), queries.size());
    }
    ++round;
  } while (NowNs() < deadline || next_count != 0);
}

// Closes and reopens the dataset kReopenRepeats times, each replaying the
// unflushed WAL tail, then checks that every acknowledged record is there.
void ReopenPhase(Run* run, Instance* inst, const Model& model) {
  for (int i = 0; i < kReopenRepeats; ++i) {
    inst->Close();
    const uint64_t wal_read_before =
        run->tracer != nullptr
            ? run->tracer->env.counters(CountingEnv::kWal).bytes_read
            : 0;
    const int64_t start = CpuNs();
    inst->Open();
    run->reopen_s.push_back(static_cast<double>(CpuNs() - start) / 1e9);
    if (run->tracer != nullptr) {
      run->wal_replay_bytes =
          run->tracer->env.counters(CountingEnv::kWal).bytes_read -
          wal_read_before;
    }
  }
  Dataset* db = inst->db();
  auto all = db->CountAll();
  CheckOk(all.status(), "CountAll");
  Require(all.value() == model.live().size(), "count_all_matches_model",
          std::to_string(all.value()) + " vs " +
              std::to_string(model.live().size()));
  auto it = model.live().begin();
  uint64_t seen = 0;
  std::string mismatch;
  const size_t field_count = db->schema().field_count();
  CheckOk(db->primary()->Scan(
              PrimaryKey(std::numeric_limits<int64_t>::min()),
              PrimaryKey(std::numeric_limits<int64_t>::max()),
              [&](const Entry& entry) {
                ++seen;
                if (!mismatch.empty()) return;
                Record got;
                if (it == model.live().end() || it->first != entry.key.k0 ||
                    !DecodeRecordValue(entry.value, field_count, &got).ok() ||
                    !model.Matches(it->second, got)) {
                  mismatch = "pk " + std::to_string(entry.key.k0);
                  return;
                }
                ++it;
              }),
          "primary scan");
  Require(mismatch.empty() && seen == model.live().size(),
          "acknowledged_records_present_after_reopen",
          mismatch.empty() ? std::to_string(seen) + " records scanned"
                           : mismatch);
}

// At a quiescent point: exact counts, the whole-domain estimate, and the
// normalized L1 error of the estimates against the model.
void AccuracyPhase(Run* run, const Config& config, Instance* inst,
                   const Model& model, const std::vector<RangeQ>& queries) {
  Dataset* db = inst->db();
  CheckOk(db->Flush(), "Dataset::Flush");
  const double live = static_cast<double>(model.live().size());
  Require(live > 0, "model_not_empty", "no live records");
  // Each field's ranges are scored on their own. Every field has as many
  // ranges, so the mean over the fields is the mean over all ranges.
  std::vector<std::vector<RangeQuery>> by_field(model.indexed().size());
  for (const RangeQ& q : queries) by_field[q.slot].push_back({q.lo, q.hi});
  double l1 = 0;
  double zero_l1 = 0;
  for (size_t s = 0; s < by_field.size(); ++s) {
    const auto key = db->StatsKey(inst->field_name(s));
    auto estimate = [&](const RangeQuery& q) {
      const double e =
          inst->estimator()->EstimateRangePartition(key, q.lo, q.hi);
      Require(std::isfinite(e) && e >= 0, "estimate_finite_nonnegative",
              std::to_string(e));
      return e;
    };
    auto exact = [&](const RangeQuery& q) { return model.Count(s, q.lo, q.hi); };
    auto zero = [](const RangeQuery&) { return 0.0; };
    l1 += NormalizedL1Error(by_field[s], estimate, exact, model.live().size());
    zero_l1 += NormalizedL1Error(by_field[s], zero, exact, model.live().size());
  }
  l1 /= static_cast<double>(by_field.size());
  zero_l1 /= static_cast<double>(by_field.size());
  Require(l1 < zero_l1, "estimate_l1_below_guess_zero",
          std::to_string(l1) + " vs " + std::to_string(zero_l1));
  run->estimate_l1 = l1;
  for (size_t s = 0; s < model.indexed().size(); ++s) {
    const ValueDomain domain =
        config.schema.field(model.indexed()[s]).EffectiveDomain();
    const double whole = inst->estimator()->EstimateRangePartition(
        db->StatsKey(inst->field_name(s)), domain.min_value(),
        domain.max_value());
    std::printf("perfbench: whole-domain estimate %s %.1f vs %zu live\n",
                inst->field_name(s).c_str(), whole, model.live().size());
    Require(std::abs(whole - live) <= kWholeDomainTolerance * live,
            "whole_domain_estimate_within_2pct",
            inst->field_name(s) + ": " + std::to_string(whole) + " vs " +
                std::to_string(model.live().size()));
    auto count = db->CountRange(inst->field_name(s), domain.min_value(),
                                domain.max_value());
    CheckOk(count.status(), "CountRange");
    Require(count.value() == model.live().size(), "count_range_matches_model",
            inst->field_name(s) + " whole domain");
  }
  run->space_amp = static_cast<double>(DirBytes(inst->dir())) /
                   static_cast<double>(model.LiveUserBytes());
  run->synopsis_kb =
      static_cast<double>(inst->catalog().TotalStorageBytes()) / 1024.0;
}

// Opens a fresh dataset, bulkloads the model's records except `tail` and
// then inserts `tail` (a feed of inserts in batches), kSetupRepeats times;
// the last dataset is the run's. Each repeat builds its Load input from the
// model, so the base is never held twice. Set-up time is the client
// thread's CPU time, like the rates.
std::unique_ptr<Instance> Setup(Run* run, const Config& config,
                                const Model& model,
                                const std::vector<int64_t>& tail) {
  std::vector<int64_t> sorted_tail = tail;
  std::sort(sorted_tail.begin(), sorted_tail.end());
  // The benchmark's own share of peak_rss_mb: its inputs and model.
  std::printf("perfbench: peak RSS before the first Open %.1f MiB\n",
              PeakRssMb());
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (inst != nullptr) {
      const std::string old = inst->dir();
      inst.reset();
      std::filesystem::remove_all(old);
    }
    const std::string dir = run->args->dir + "/setup" + std::to_string(i);
    std::filesystem::create_directories(dir);
    std::vector<Record> records;
    records.reserve(model.live().size() - tail.size());
    for (const auto& [pk, rec] : model.live()) {
      if (!std::binary_search(sorted_tail.begin(), sorted_tail.end(), pk)) {
        records.push_back(model.ToRecord(pk, rec));
      }
    }
    inst = std::make_unique<Instance>(config, dir, run->tracer);
    const int64_t start = CpuNs();
    inst->Open();
    const int64_t load_start = CpuNs();
    {
      ScopedSpan span(inst->spans(), "db.load");
      CheckOk(inst->db()->Load(std::move(records)), "Dataset::Load");
    }
    run->load_s.push_back(static_cast<double>(CpuNs() - load_start) / 1e9);
    for (size_t first = 0; first < tail.size(); first += kWriteBatch) {
      std::vector<Write> batch;
      for (size_t k = first; k < std::min(tail.size(), first + kWriteBatch);
           ++k) {
        const Model::Rec& rec = *model.Find(tail[k]);
        batch.push_back({Write::kInsert, model.ToRecord(tail[k], rec),
                         model.UserBytes(rec)});
      }
      RunWrites(run, inst.get(), &batch);
      for (const Write& w : batch) {
        Require(w.ok, "setup_tail_insert", "pk " + std::to_string(w.record.pk));
      }
    }
    run->setup_s.push_back(static_cast<double>(CpuNs() - start) / 1e9);
  }
  return inst;
}

std::vector<std::string> TweetPayloads(size_t bytes, uint64_t seed) {
  Random rng(seed);
  std::vector<std::string> pool;
  for (size_t i = 0; i < kPayloadPool; ++i) {
    pool.push_back(SynthesizeTweetPayload(bytes, &rng));
  }
  return pool;
}

// The value distribution's shape is part of the workload; the seed only
// orders the values.
SyntheticDistribution TweetValues(uint64_t records, int log_domain) {
  DistributionSpec spec;
  spec.spread = SpreadDistribution::kZipfRandom;
  spec.frequency = FrequencyDistribution::kZipfRandom;
  spec.num_values = 2000;
  spec.total_records = records;
  spec.domain = ValueDomain(0, log_domain);
  spec.seed = 42;
  return SyntheticDistribution::Generate(spec);
}

// Keys for the Get phase over the live keys: uniform when `alpha` is 0,
// else Zipf-skewed with exponent `alpha` over a ranking of the keys that is
// reshuffled every kHotSetGets keys. A moving hot set keeps a few keys of
// one seed (the top rank alone draws ~10% of the Gets at alpha 1.1) from
// deciding the whole run. Every tenth key is made absent by adding
// `absent_offset`.
std::vector<int64_t> GetKeys(const Model& model, double alpha,
                             int64_t absent_offset, size_t count,
                             uint64_t seed) {
  constexpr size_t kHotSetGets = 4096;
  std::vector<int64_t> live;
  live.reserve(model.live().size());
  for (const auto& [pk, rec] : model.live()) live.push_back(pk);
  Random rng(seed);
  rng.Shuffle(&live);
  ZipfSampler zipf(live.size(), alpha, seed + 1);
  std::vector<int64_t> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (alpha > 0 && i > 0 && i % kHotSetGets == 0) rng.Shuffle(&live);
    const int64_t pk = live[alpha > 0 ? zipf.Next() : rng.Uniform(live.size())];
    keys.push_back(i % 10 == 9 ? pk + absent_offset : pk);
  }
  return keys;
}

// The first `per_type` ranges of each type and field of `queries` (as
// MakeQueries lays them out with `of_per_type` per type).
std::vector<RangeQ> Subset(const std::vector<RangeQ>& queries,
                           size_t of_per_type, size_t per_type) {
  std::vector<RangeQ> out;
  for (size_t first = 0; first < queries.size(); first += of_per_type) {
    out.insert(out.end(), queries.begin() + first,
               queries.begin() + first + per_type);
  }
  return out;
}

// ingest: inserts of fresh keys interleaved across a bulkloaded base of
// ~1 KB tweets; equi-height synopses.
std::unique_ptr<Instance> RunIngest(Run* run) {
  const Args& args = *run->args;
  const uint64_t base_n = args.small ? 2000 : 40000;
  const uint64_t inserts =
      RoundTo(args.seconds * (args.small ? 400 : 24000), kWriteBatch);
  const uint64_t total = base_n + inserts;
  const int log_domain = 16;
  Config config;
  config.name = "tweets";
  config.schema = TweetSchema(ValueDomain(0, log_domain));
  config.synopsis = SynopsisType::kEquiHeightHistogram;
  config.memtable_entries = args.small ? 512 : 4096;
  config.read_share = 0.2;
  config.round_gets = 512;
  config.round_counts = 1;
  config.round_estimate_passes = 16;

  // Inputs, before any timer: key order, values, payloads.
  Model model(config.schema, TweetPayloads(1000, args.seed));
  std::vector<std::pair<int64_t, Model::Rec>> feed;
  {
    const std::vector<int64_t> values =
        TweetValues(total, log_domain).ExpandShuffled(args.seed + 1);
    std::vector<int64_t> pks(total);
    for (uint64_t i = 0; i < total; ++i) pks[i] = static_cast<int64_t>(2 * i);
    Random rng(args.seed + 2);
    rng.Shuffle(&pks);
    feed.reserve(total);
    for (uint64_t i = 0; i < total; ++i) {
      feed.emplace_back(
          pks[i], Model::Rec{{values[i], kTimestampBase + pks[i]},
                             static_cast<uint32_t>(rng.Uniform(kPayloadPool))});
    }
  }
  for (uint64_t i = 0; i < base_n; ++i) {
    model.Put(feed[i].first, feed[i].second);
  }
  auto inst = Setup(run, config, model, {});

  StartMeasuring(run, inst.get());
  for (uint64_t first = base_n; first < total; first += kWriteBatch) {
    std::vector<Write> batch;
    for (uint64_t i = first; i < std::min(total, first + kWriteBatch); ++i) {
      batch.push_back({Write::kInsert, model.ToRecord(feed[i].first,
                                                      feed[i].second),
                       model.UserBytes(feed[i].second)});
    }
    RunWrites(run, inst.get(), &batch);
    for (uint64_t i = first; i < std::min(total, first + kWriteBatch); ++i) {
      if (batch[i - first].ok) model.Put(feed[i].first, feed[i].second);
    }
  }
  run->span_coverage =
      Coverage(run->start, TakeSnapshot(inst.get(), run->tracer));
  const std::vector<RangeQ> queries = MakeQueries(model, 256);
  const std::vector<RangeQ> counts = Subset(queries, 256, 16);
  const std::vector<int64_t> keys =
      GetKeys(model, /*alpha=*/0, /*absent_offset=*/1, 1 << 15, args.seed + 3);
  ReadPhases(run, config, inst.get(), model, keys, counts, queries);
  StopMeasuring(run, inst.get());
  ReopenPhase(run, inst.get(), model);
  AccuracyPhase(run, config, inst.get(), model, queries);
  return inst;
}

// query: a WorldCup-like log with six indexed fields, several times the
// block cache, left in several components per tree; reads only.
std::unique_ptr<Instance> RunQuery(Run* run) {
  const Args& args = *run->args;
  const uint64_t n = args.small ? 4000 : 200000;
  Config config;
  config.name = "worldcup";
  config.schema = WorldCupSchema();
  config.synopsis = SynopsisType::kWavelet;
  config.memtable_entries = args.small ? 256 : 8192;
  config.read_share = 1.0;
  config.round_gets = 1024;
  config.round_counts = 2;
  config.round_estimate_passes = 4;
  // Three and a half memtables: three flushed components per tree on top of
  // the bulkloaded one, and half a memtable left in the WAL.
  const uint64_t tail_n = config.memtable_entries * 7 / 2;

  std::vector<std::string> payloads;
  std::unordered_map<std::string, uint32_t> payload_ids;
  std::vector<std::pair<int64_t, Model::Rec>> recs;
  WorldCupGenerator gen(n, args.seed);
  while (gen.HasNext()) {
    Record r = gen.Next();
    auto [it, fresh] = payload_ids.emplace(
        r.payload, static_cast<uint32_t>(payloads.size()));
    if (fresh) payloads.push_back(r.payload);
    recs.push_back({2 * r.pk, Model::Rec{std::move(r.fields), it->second}});
  }
  payload_ids.clear();
  Model model(config.schema, std::move(payloads));
  Random rng(args.seed + 2);
  rng.Shuffle(&recs);
  std::vector<int64_t> tail;
  for (uint64_t i = n - tail_n; i < n; ++i) tail.push_back(recs[i].first);
  for (auto& [pk, rec] : recs) model.Put(pk, std::move(rec));
  recs = {};

  // The feed tail's inserts are the workload's write sample.
  auto inst = Setup(run, config, model, tail);

  const std::vector<RangeQ> queries = MakeQueries(model, 64);
  const std::vector<RangeQ> counts = Subset(queries, 64, 16);
  const std::vector<int64_t> keys =
      GetKeys(model, /*alpha=*/1.1, /*absent_offset=*/1, 1 << 16,
              args.seed + 3);
  StartMeasuring(run, inst.get());
  ReadPhases(run, config, inst.get(), model, keys, counts, queries);
  StopMeasuring(run, inst.get());
  run->span_coverage = Coverage(run->start, run->end);
  ReopenPhase(run, inst.get(), model);
  AccuracyPhase(run, config, inst.get(), model, queries);
  return inst;
}

// churn: inserts, updates and deletes over a bulkloaded base of small
// tweets that fits in the block cache, with estimates, Gets and counts in
// between and staged flushes at fixed operation counts.
std::unique_ptr<Instance> RunChurn(Run* run) {
  const Args& args = *run->args;
  const uint64_t base_n = args.small ? 2000 : 30000;
  // A round is kRoundWrites writes, then kRoundEstimates estimates and
  // kRoundGets Gets; a count every kCountEvery rounds, a staged
  // Dataset::Flush every flush_every rounds.
  constexpr size_t kRoundWrites = 64;
  constexpr size_t kRoundEstimates = 16;
  constexpr size_t kRoundGets = 4;
  constexpr uint64_t kCountEvery = 16;
  const uint64_t flush_every = args.small ? 16 : 256;
  const uint64_t rounds =
      RoundTo(args.seconds * (args.small ? 500 : 40000), kRoundWrites) /
      kRoundWrites;
  const int log_domain = 14;
  Config config;
  config.name = "tweets";
  config.schema = TweetSchema(ValueDomain(0, log_domain));
  config.synopsis = SynopsisType::kWavelet;
  config.memtable_entries = args.small ? 256 : 2048;

  Model model(config.schema, TweetPayloads(64, args.seed));
  const SyntheticDistribution dist = TweetValues(base_n, log_domain);
  const std::vector<int64_t> values = dist.ExpandShuffled(args.seed + 1);
  Random rng(args.seed + 2);
  // Live keys, and each key's position among them (keys are dense).
  std::vector<int64_t> live_pks;
  std::vector<size_t> live_pos(base_n + rounds * kRoundWrites);
  for (uint64_t i = 0; i < base_n; ++i) {
    const int64_t pk = static_cast<int64_t>(i);
    Model::Rec rec{{values[i], kTimestampBase + pk},
                   static_cast<uint32_t>(rng.Uniform(kPayloadPool))};
    model.Put(pk, std::move(rec));
    live_pos[pk] = live_pks.size();
    live_pks.push_back(pk);
  }
  // Operation list: 35% inserts of fresh keys, 30% updates that redraw the
  // value and payload, 35% deletes; the target of an update or delete is
  // drawn from the keys live when its round starts, at most once a round.
  struct Op {
    Write::Kind kind;
    uint64_t pick;
    int64_t value;
    uint32_t payload;
  };
  std::vector<Op> ops(rounds * kRoundWrites);
  for (Op& op : ops) {
    const uint64_t roll = rng.Uniform(100);
    op.kind = roll < 35   ? Write::kInsert
              : roll < 65 ? Write::kUpdate
                          : Write::kDelete;
    op.pick = rng.NextU64();
    op.value = dist.SampleValue(&rng);
    op.payload = static_cast<uint32_t>(rng.Uniform(kPayloadPool));
  }
  const std::vector<RangeQ> queries = MakeQueries(model, 256);
  const std::vector<RangeQ> counts = Subset(queries, 256, 16);

  auto inst = Setup(run, config, model, {});
  int64_t next_pk = static_cast<int64_t>(base_n);
  std::vector<Write> batch;
  std::vector<int64_t> picked;
  std::vector<int64_t> get_keys(kRoundGets);

  StartMeasuring(run, inst.get());
  for (uint64_t r = 0; r < rounds; ++r) {
    batch.clear();
    picked.clear();
    for (size_t k = 0; k < kRoundWrites; ++k) {
      const Op& op = ops[r * kRoundWrites + k];
      Write w;
      w.kind = op.kind;
      if (op.kind == Write::kInsert) {
        Model::Rec rec{{op.value, kTimestampBase + next_pk}, op.payload};
        w.record = model.ToRecord(next_pk++, rec);
        w.user_bytes = model.UserBytes(rec);
      } else {
        size_t pos = op.pick % live_pks.size();
        while (std::find(picked.begin(), picked.end(), live_pks[pos]) !=
               picked.end()) {
          pos = (pos + 1) % live_pks.size();
        }
        const int64_t pk = live_pks[pos];
        picked.push_back(pk);
        w.record.pk = pk;
        if (op.kind == Write::kUpdate) {
          const Model::Rec rec{{op.value, model.Find(pk)->fields[1]},
                               op.payload};
          w.record = model.ToRecord(pk, rec);
          w.user_bytes = model.UserBytes(rec);
        } else {
          w.user_bytes = 8;
        }
      }
      batch.push_back(std::move(w));
    }
    RunWrites(run, inst.get(), &batch);
    for (Write& w : batch) {
      if (!w.ok) continue;
      const int64_t pk = w.record.pk;
      if (w.kind == Write::kDelete) {
        model.Erase(pk);
        const size_t pos = live_pos[pk];
        live_pks[pos] = live_pks.back();
        live_pos[live_pks[pos]] = pos;
        live_pks.pop_back();
        continue;
      }
      const Op& op = ops[r * kRoundWrites + (&w - batch.data())];
      model.Put(pk, Model::Rec{std::move(w.record.fields), op.payload});
      if (w.kind == Write::kInsert) {
        live_pos[pk] = live_pks.size();
        live_pks.push_back(pk);
      }
    }
    RunEstimates(run, inst.get(),
                 &queries[(r * kRoundEstimates) % queries.size()],
                 kRoundEstimates);
    for (size_t k = 0; k < kRoundGets; ++k) {
      get_keys[k] =
          live_pks[(ops[r * kRoundWrites + k].pick >> 20) % live_pks.size()];
    }
    RunGets(run, inst.get(), model, get_keys.data(), kRoundGets);
    if ((r + 1) % kCountEvery == 0) {
      RunCounts(run, inst.get(), model,
                &counts[((r + 1) / kCountEvery) % counts.size()], 1);
    }
    if ((r + 1) % flush_every == 0) {
      // A staged checkpoint counts as write time.
      ScopedSpan span(inst->spans(), "db.flush");
      CpuBatch cpu(&run->writes.busy_ns);
      Attempt(&run->ops, inst->db()->Flush(), "flush");
    }
  }
  StopMeasuring(run, inst.get());
  run->span_coverage = Coverage(run->start, run->end);
  ReopenPhase(run, inst.get(), model);
  AccuracyPhase(run, config, inst.get(), model, queries);
  return inst;
}

// ---------------------------------------------------------------- report

void EndToEnd(const Run& run, Metrics* m) {
  std::vector<double> w = run.writes.lat_us;
  std::vector<double> g = run.gets.lat_us;
  std::sort(w.begin(), w.end());
  std::sort(g.begin(), g.end());
  m->Add("setup_s", Median(run.setup_s), "s");
  m->Add("write_per_s", run.writes.PerSecond(), "ops/s");
  m->Add("write_p50_us", Percentile(w, 50), "us");
  m->Add("write_p99_us", Percentile(w, 99), "us");
  m->Add("get_per_s", run.gets.PerSecond(), "ops/s");
  m->Add("get_p50_us", Percentile(g, 50), "us");
  m->Add("get_p99_us", Percentile(g, 99), "us");
  m->Add("count_per_s", run.counts.PerSecond(), "ops/s");
  m->Add("estimate_per_s", run.estimates.PerSecond(), "ops/s");
  m->Add("estimate_l1", run.estimate_l1, "fraction");
  m->Add("reopen_s", Median(run.reopen_s), "s");
  m->Add("space_amp", run.space_amp, "ratio");
  m->Add("synopsis_kb", run.synopsis_kb, "KiB");
  m->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void PerLayer(const Run& run, Metrics* m) {
  const Snapshot& a = run.start;
  const Snapshot& b = run.end;
  auto totals = [&](const std::string& name) {
    auto it = run.span_totals.find(name);
    return it == run.span_totals.end() ? SpanRecorder::Totals{} : it->second;
  };
  auto mean_us = [](const SpanRecorder::Totals& t, bool self) {
    return Ratio(static_cast<double>(self ? t.self_ns : t.total_ns) / 1000.0,
                 static_cast<double>(t.count));
  };
  auto secs = [](int64_t ns) { return static_cast<double>(ns) / 1e9; };
  const double writes = static_cast<double>(run.writes.ops);
  const double gets = static_cast<double>(run.gets.ops);

  m->Add("db.write_self_us", mean_us(totals("db.write"), true), "us");
  m->Add("db.get_us", mean_us(totals("db.get"), false), "us");
  m->Add("db.count_us", mean_us(totals("db.count"), false), "us");
  m->Add("db.load_s", Median(run.load_s), "s");

  m->Add("lsm.flushes", static_cast<double>(b.lsm.flushes - a.lsm.flushes),
         "count");
  m->Add("lsm.flush_s", secs(totals("lsm.flush").total_ns), "s");
  m->Add("lsm.merges", static_cast<double>(b.lsm.merges - a.lsm.merges),
         "count");
  m->Add("lsm.merge_s", secs(totals("lsm.merge").total_ns), "s");
  m->Add("lsm.stall_s", secs(b.stall_ns - a.stall_ns), "s");
  m->Add("lsm.merge_bytes_written",
         static_cast<double>(b.merge_bytes_written - a.merge_bytes_written),
         "bytes");
  m->Add("lsm.entries_written_per_write",
         Ratio(static_cast<double>(b.lsm.entries_written -
                                   a.lsm.entries_written),
               writes),
         "ratio");

  // Shape of the trees at the end of the measured phases.
  m->Add("lsm.anti_matter_entries", static_cast<double>(b.anti_matter),
         "count");
  m->Add("lsm.components", static_cast<double>(b.components), "count");
  m->Add("lsm.bloom_kb", static_cast<double>(b.bloom_bytes) / 1024.0, "KiB");

  m->Add("lsm.wal.records",
         static_cast<double>(b.wal_records - a.wal_records), "count");
  m->Add("lsm.wal.syncs", static_cast<double>(b.wal_syncs - a.wal_syncs),
         "count");
  m->Add("lsm.wal.bytes",
         static_cast<double>(b.wal.bytes_written - a.wal.bytes_written),
         "bytes");
  m->Add("lsm.wal.append_s", secs(b.wal.append_ns - a.wal.append_ns), "s");
  m->Add("lsm.wal.replay_bytes", static_cast<double>(run.wal_replay_bytes),
         "bytes");

  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  m->Add("lsm.format.cache_hits", hits, "count");
  m->Add("lsm.format.cache_misses", misses, "count");
  m->Add("lsm.format.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  m->Add("lsm.format.cache_evictions",
         static_cast<double>(b.cache.evictions - a.cache.evictions), "count");
  m->Add("lsm.format.cache_mb",
         static_cast<double>(b.cache.charge) / (1024.0 * 1024.0), "MiB");

  const double written =
      static_cast<double>(b.env.bytes_written - a.env.bytes_written);
  m->Add("env.bytes_written", written, "bytes");
  m->Add("env.write_amp",
         Ratio(written, static_cast<double>(run.user_bytes_written)),
         "ratio");
  m->Add("env.files_created",
         static_cast<double>(b.env.files_created - a.env.files_created),
         "count");
  m->Add("env.syncs",
         static_cast<double>(b.env.syncs - a.env.syncs + b.dir_syncs -
                             a.dir_syncs),
         "count");
  m->Add("env.sync_s",
         secs(b.env.sync_ns - a.env.sync_ns + b.dir_sync_ns - a.dir_sync_ns),
         "s");
  m->Add("env.reads", static_cast<double>(b.env.reads - a.env.reads),
         "count");
  m->Add("env.bytes_read",
         static_cast<double>(b.env.bytes_read - a.env.bytes_read), "bytes");
  m->Add("env.read_s", secs(b.env.read_ns - a.env.read_ns), "s");
  m->Add("env.reads_per_get",
         Ratio(static_cast<double>(totals("db.get/env.read.component").count),
               gets),
         "ratio");
  m->Add("env.reads_per_write",
         Ratio(static_cast<double>(
                   totals("db.write/env.read.component").count),
               writes),
         "ratio");

  const double estimates = static_cast<double>(run.estimates.ops);
  const double est_hits = static_cast<double>(run.estimate_hits);
  m->Add("stats.estimate_hit_ratio", Ratio(est_hits, estimates), "ratio");
  m->Add("stats.hit_us",
         Ratio(static_cast<double>(run.hit_ns) / 1000.0, est_hits), "us");
  m->Add("stats.rebuild_us",
         Ratio(static_cast<double>(run.rebuild_ns) / 1000.0,
               estimates - est_hits),
         "us");
  m->Add("stats.probed_per_estimate",
         Ratio(static_cast<double>(run.synopses_probed), estimates), "ratio");
  m->Add("stats.catalog_entries", static_cast<double>(b.catalog_entries),
         "count");
  m->Add("stats.publishes", static_cast<double>(b.publishes - a.publishes),
         "count");
  m->Add("stats.publish_s", secs(b.publish_ns - a.publish_ns), "s");

  const LsmCounters& lsm = run.tracer->lsm;
  m->Add("synopsis.build_us_per_entry",
         Ratio(static_cast<double>(lsm.synopsis_build_ns) / 1000.0,
               static_cast<double>(lsm.synopsis_entries)),
         "us");
  m->Add("trace.span_coverage", run.span_coverage, "ratio");
}

}  // namespace
}  // namespace lsmstats::perfbench

int main(int argc, char** argv) {
  using namespace lsmstats::perfbench;
  // The engine reads LSMSTATS_* overrides (merge policy, WAL, memory
  // arbiter, ...) from the environment; the benchmark fixes every setting
  // itself.
  std::vector<std::string> overrides;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LSMSTATS_", 9) == 0) {
      overrides.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  for (const std::string& name : overrides) unsetenv(name.c_str());

  const Args args = ParseArgs(argc, argv);
  std::filesystem::remove_all(args.dir);
  std::filesystem::create_directories(args.dir);

  Tracer tracer;
  Run run;
  run.args = &args;
  run.tracer = args.trace ? &tracer : nullptr;
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s "
              "data-filesystem=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.small ? " small" : "",
              FilesystemOf(args.dir).c_str());

  std::unique_ptr<Instance> inst = args.workload == "ingest"  ? RunIngest(&run)
                                   : args.workload == "query" ? RunQuery(&run)
                                                              : RunChurn(&run);
  inst.reset();
  std::filesystem::remove_all(args.dir);

  Metrics end_to_end;
  EndToEnd(run, &end_to_end);
  Metrics result;
  if (args.trace) {
    // The end-to-end figures of a traced run, for the tracing overhead.
    std::printf("perfbench: traced end-to-end %s\n", end_to_end.Json().c_str());
    PerLayer(run, &result);
    if (!args.trace_out.empty() && !tracer.spans.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  } else {
    result = end_to_end;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(run.ops.attempted),
              static_cast<unsigned long long>(run.ops.failed),
              result.Json().c_str());
  return 0;
}
