// Layer probes for the traced benchmark run.
//
// Every probe sits outside the engine, at one of its public seams: a counting
// wrapper around Env::Default() (DatasetOptions::env), an LsmEventListener
// added to every index tree, a SynopsisSink placed in front of
// LocalCatalogSink, and an in-memory span recorder that all of them report
// to. None of them is installed in a timed (untraced) run.
//
// The benchmark runs maintenance synchronously on its one client thread, so
// every span opens and closes on that thread and spans nest strictly; the
// recorder keeps one stack of open spans and is not synchronized.

#ifndef LSMSTATS_PERFBENCH_PROBES_H_
#define LSMSTATS_PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "lsm/event_listener.h"
#include "stats/statistics_collector.h"
#include "synopsis/builder.h"

namespace lsmstats::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Keeps spans (name, start, end, parent) in memory and aggregates them by
// name. A span's duration excludes the time of probe spans nested anywhere
// below it (work the benchmark adds, such as the observer's duplicate
// synopsis build); its self time further excludes its other child spans.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index of the parent among the stored spans, or -1
  };
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;  // durations, probe time excluded
    int64_t self_ns = 0;   // durations minus non-probe child spans
  };

  // Spans past this many are aggregated but not stored.
  static constexpr size_t kMaxStoredSpans = 1 << 18;

  // Opens a span named by a string literal. Probe spans are excluded from
  // every enclosing span's duration.
  void Open(const char* name, bool probe = false);
  void Close();

  // Time that flush and merge spans spent nested inside a span named
  // `db.write*` — the foreground write time maintenance covered.
  int64_t stall_ns() const { return stall_ns_; }
  // Running sums of root-span durations and of probe-span time: a phase's
  // wall time, less its probe time, is covered by root spans to the extent
  // the two deltas agree.
  int64_t root_ns() const { return root_ns_; }
  int64_t probe_ns() const { return probe_ns_; }
  // Totals by span name, and by "<parent name>/<name>" for nested spans.
  std::map<std::string, Totals> totals() const;
  // Clears the totals (stored spans stay); no span may be open.
  void ResetTotals() {
    by_name_.clear();
    by_parent_.clear();
  }

  // Writes {"spans": [...], "totals": {...}} to `path`.
  [[nodiscard]] bool WriteJson(const std::string& path) const;

 private:
  struct Frame {
    const char* name;
    int64_t start_ns;
    int64_t child_ns = 0;
    int64_t probe_ns = 0;
    int32_t stored = -1;
    bool probe = false;
  };

  std::vector<Frame> open_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  // Keyed by the names' addresses, so that closing a span allocates
  // nothing; totals() merges equal names.
  std::map<const char*, Totals> by_name_;
  std::map<std::pair<const char*, const char*>, Totals> by_parent_;
  int64_t stall_ns_ = 0;
  int64_t root_ns_ = 0;
  int64_t probe_ns_ = 0;
};

// Opens a span for the enclosing scope; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, bool probe = false)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Open(name, probe);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

// Env wrapper that counts and times file operations, classifying files by
// name: `*.wal*` as WAL segments, `*.cmp*` as components, everything else
// (component manifests, the catalog) as metadata.
class CountingEnv : public Env {
 public:
  enum FileClass { kWal = 0, kComponent = 1, kMeta = 2, kClassCount = 3 };
  struct Counters {
    uint64_t files_created = 0;
    uint64_t appends = 0;
    uint64_t bytes_written = 0;
    int64_t append_ns = 0;
    uint64_t syncs = 0;  // file fsyncs; directory syncs count in dir_syncs
    int64_t sync_ns = 0;
    uint64_t reads = 0;
    uint64_t bytes_read = 0;
    int64_t read_ns = 0;
  };

  CountingEnv(Env* base, SpanRecorder* recorder)
      : base_(base), recorder_(recorder) {}

  static FileClass Classify(const std::string& path);

  const Counters& counters(FileClass c) const { return counters_[c]; }
  Counters Total() const;
  uint64_t dir_syncs() const { return dir_syncs_; }
  int64_t dir_sync_ns() const { return dir_sync_ns_; }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  StatusOr<std::shared_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  Status RemoveFileIfExists(const std::string& path) override {
    return base_->RemoveFileIfExists(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status SyncDir(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    return base_->ListDir(path, names);
  }
  StatusOr<uint64_t> GetFreeSpace(const std::string& path) override {
    return base_->GetFreeSpace(path);
  }

 private:
  class File;
  class Reader;

  Env* base_;
  SpanRecorder* recorder_;
  Counters counters_[kClassCount];
  uint64_t dir_syncs_ = 0;
  int64_t dir_sync_ns_ = 0;
};

// Counts of what the engine's LSM events did, across every tree a
// TreeProbe is attached to.
struct LsmCounters {
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t entries_written = 0;  // by flushes and merges
  // The observer's duplicate synopsis build (secondary trees only).
  uint64_t synopsis_entries = 0;
  int64_t synopsis_build_ns = 0;
};

// Listener on one index tree: a span from OnOperationBegin to
// OnComponentSealed per flush, merge or bulkload, entry counts, and — on a
// secondary tree — a timed rebuild of the component's synopsis through the
// public CreateSynopsisBuilder from the secondary-key stream.
class TreeProbe : public LsmEventListener {
 public:
  // `synopsis` has type kNone for trees whose keys are not a field value.
  TreeProbe(SpanRecorder* recorder, LsmCounters* counters,
            SynopsisConfig synopsis)
      : recorder_(recorder), counters_(counters),
        synopsis_(std::move(synopsis)) {}

  std::unique_ptr<ComponentWriteObserver> OnOperationBegin(
      const OperationContext& context) override;

 private:
  class Observer;

  SpanRecorder* recorder_;
  LsmCounters* counters_;
  SynopsisConfig synopsis_;
};

// Times each publication into the wrapped sink.
class TimingSink : public SynopsisSink {
 public:
  TimingSink(SynopsisSink* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  void PublishComponentStatistics(
      const StatisticsKey& key, const ComponentMetadata& metadata,
      const std::vector<uint64_t>& replaced_component_ids,
      std::shared_ptr<const Synopsis> synopsis,
      std::shared_ptr<const Synopsis> anti_synopsis) override;

  uint64_t publishes() const { return publishes_; }
  int64_t publish_ns() const { return publish_ns_; }

 private:
  SynopsisSink* inner_;
  SpanRecorder* recorder_;
  uint64_t publishes_ = 0;
  int64_t publish_ns_ = 0;
};

}  // namespace lsmstats::perfbench

#endif  // LSMSTATS_PERFBENCH_PROBES_H_
