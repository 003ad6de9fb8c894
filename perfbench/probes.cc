#include "perfbench/probes.h"

#include <cstdio>
#include <cstring>
#include <utility>

namespace lsmstats::perfbench {

// ------------------------------------------------------------ SpanRecorder

void SpanRecorder::Open(const char* name, bool probe) {
  Frame frame;
  frame.name = name;
  frame.probe = probe;
  if (spans_.size() < kMaxStoredSpans) {
    int32_t parent = -1;
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (it->stored >= 0) {
        parent = it->stored;
        break;
      }
    }
    frame.stored = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, 0, 0, parent});
  } else {
    ++dropped_;
  }
  frame.start_ns = NowNs();
  if (frame.stored >= 0) spans_[frame.stored].start_ns = frame.start_ns;
  open_.push_back(frame);
}

void SpanRecorder::Close() {
  const int64_t end_ns = NowNs();
  const Frame frame = open_.back();
  open_.pop_back();
  if (frame.stored >= 0) spans_[frame.stored].end_ns = end_ns;
  const int64_t raw = end_ns - frame.start_ns;
  Totals& totals = by_name_[frame.name];
  ++totals.count;
  if (frame.probe) {
    totals.total_ns += raw;
    totals.self_ns += raw;
    for (Frame& ancestor : open_) ancestor.probe_ns += raw;
    probe_ns_ += raw;
    return;
  }
  const int64_t duration = raw - frame.probe_ns;
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  if (open_.empty()) {
    root_ns_ += duration;
    return;
  }
  open_.back().child_ns += duration;
  Totals& nested = by_parent_[{open_.back().name, frame.name}];
  ++nested.count;
  nested.total_ns += duration;
  nested.self_ns += duration - frame.child_ns;
  if (std::strcmp(frame.name, "lsm.flush") == 0 ||
      std::strcmp(frame.name, "lsm.merge") == 0) {
    for (const Frame& ancestor : open_) {
      if (std::strncmp(ancestor.name, "db.write", 8) == 0) {
        stall_ns_ += duration;
        break;
      }
    }
  }
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::map<std::string, Totals> out;
  auto add = [&](const std::string& name, const Totals& t) {
    Totals& sum = out[name];
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  };
  for (const auto& [name, t] : by_name_) add(name, t);
  for (const auto& [names, t] : by_parent_) {
    add(std::string(names.first) + "/" + names.second, t);
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"dropped_spans\": %llu, \"totals\": {",
               static_cast<unsigned long long>(dropped_));
  bool first = true;
  for (const auto& [name, totals] : totals()) {
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ns\": %lld, "
                 "\"self_ns\": %lld}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(totals.count),
                 static_cast<long long>(totals.total_ns),
                 static_cast<long long>(totals.self_ns));
    first = false;
  }
  std::fprintf(out, "},\n\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, "
                      "\"end_ns\": %lld, \"parent\": %d}",
                 i == 0 ? "" : ",", span.name,
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin), span.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

// -------------------------------------------------------------- CountingEnv

namespace {

constexpr const char* kAppendSpan[] = {"env.append.wal",
                                       "env.append.component",
                                       "env.append.meta"};
constexpr const char* kSyncSpan[] = {"env.sync.wal", "env.sync.component",
                                     "env.sync.meta"};
constexpr const char* kReadSpan[] = {"env.read.wal", "env.read.component",
                                     "env.read.meta"};

}  // namespace

class CountingEnv::File : public WritableFile {
 public:
  File(std::unique_ptr<WritableFile> inner, CountingEnv* env, FileClass cls)
      : inner_(std::move(inner)), env_(env), cls_(cls) {}

  Status Append(std::string_view data) override {
    ScopedSpan span(env_->recorder_, kAppendSpan[cls_]);
    const int64_t start = NowNs();
    Status s = inner_->Append(data);
    Counters& c = env_->counters_[cls_];
    c.append_ns += NowNs() - start;
    ++c.appends;
    c.bytes_written += data.size();
    return s;
  }
  Status Sync() override {
    ScopedSpan span(env_->recorder_, kSyncSpan[cls_]);
    const int64_t start = NowNs();
    Status s = inner_->Sync();
    Counters& c = env_->counters_[cls_];
    c.sync_ns += NowNs() - start;
    ++c.syncs;
    return s;
  }
  Status Close() override { return inner_->Close(); }
  uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<WritableFile> inner_;
  CountingEnv* env_;
  FileClass cls_;
};

class CountingEnv::Reader : public RandomAccessFile {
 public:
  Reader(std::shared_ptr<RandomAccessFile> inner, CountingEnv* env,
         FileClass cls)
      : inner_(std::move(inner)), env_(env), cls_(cls) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    ScopedSpan span(env_->recorder_, kReadSpan[cls_]);
    const int64_t start = NowNs();
    Status s = inner_->Read(offset, n, out);
    Counters& c = env_->counters_[cls_];
    c.read_ns += NowNs() - start;
    ++c.reads;
    c.bytes_read += n;
    return s;
  }
  uint64_t size() const override { return inner_->size(); }

 private:
  std::shared_ptr<RandomAccessFile> inner_;
  CountingEnv* env_;
  FileClass cls_;
};

CountingEnv::FileClass CountingEnv::Classify(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.find(".wal") != std::string::npos) return kWal;
  if (name.find(".cmp") != std::string::npos) return kComponent;
  return kMeta;
}

CountingEnv::Counters CountingEnv::Total() const {
  Counters sum;
  for (const Counters& c : counters_) {
    sum.files_created += c.files_created;
    sum.appends += c.appends;
    sum.bytes_written += c.bytes_written;
    sum.append_ns += c.append_ns;
    sum.syncs += c.syncs;
    sum.sync_ns += c.sync_ns;
    sum.reads += c.reads;
    sum.bytes_read += c.bytes_read;
    sum.read_ns += c.read_ns;
  }
  return sum;
}

StatusOr<std::unique_ptr<WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path) {
  auto file = base_->NewWritableFile(path);
  if (!file.ok()) return file.status();
  const FileClass cls = Classify(path);
  ++counters_[cls].files_created;
  return std::unique_ptr<WritableFile>(
      std::make_unique<File>(std::move(file).value(), this, cls));
}

StatusOr<std::shared_ptr<RandomAccessFile>> CountingEnv::NewRandomAccessFile(
    const std::string& path) {
  auto file = base_->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  return std::shared_ptr<RandomAccessFile>(
      std::make_shared<Reader>(std::move(file).value(), this, Classify(path)));
}

Status CountingEnv::SyncDir(const std::string& path) {
  ScopedSpan span(recorder_, "env.sync.dir");
  const int64_t start = NowNs();
  Status s = base_->SyncDir(path);
  dir_sync_ns_ += NowNs() - start;
  ++dir_syncs_;
  return s;
}

// ---------------------------------------------------------------- TreeProbe

class TreeProbe::Observer : public ComponentWriteObserver {
 public:
  Observer(const TreeProbe* probe, LsmOperation op)
      : probe_(probe), op_(op) {}
  ~Observer() override { Finish(); }

  void OnEntry(const Entry& entry) override {
    ++entries_;
    if (!entry.anti_matter && probe_->synopsis_.type != SynopsisType::kNone) {
      keys_.push_back(entry.key.k0);
    }
  }

  void OnComponentSealed(const ComponentMetadata& /*metadata*/,
                         const std::vector<uint64_t>& /*replaced*/) override {
    Finish();
  }

 private:
  void Finish() {
    if (done_) return;
    done_ = true;
    LsmCounters* counters = probe_->counters_;
    if (op_ != LsmOperation::kBulkload) counters->entries_written += entries_;
    if (!keys_.empty()) {
      ScopedSpan span(probe_->recorder_, "probe.synopsis_build",
                      /*probe=*/true);
      const int64_t start = NowNs();
      auto builder = CreateSynopsisBuilder(probe_->synopsis_, keys_.size());
      for (int64_t key : keys_) builder->Add(key);
      builder->Finish();
      counters->synopsis_build_ns += NowNs() - start;
      counters->synopsis_entries += keys_.size();
    }
    if (probe_->recorder_ != nullptr) probe_->recorder_->Close();
  }

  const TreeProbe* probe_;
  LsmOperation op_;
  uint64_t entries_ = 0;
  std::vector<int64_t> keys_;
  bool done_ = false;
};

std::unique_ptr<ComponentWriteObserver> TreeProbe::OnOperationBegin(
    const OperationContext& context) {
  const char* name = "lsm.bulkload";
  if (context.op == LsmOperation::kFlush) {
    ++counters_->flushes;
    name = "lsm.flush";
  } else if (context.op == LsmOperation::kMerge) {
    ++counters_->merges;
    name = "lsm.merge";
  }
  if (recorder_ != nullptr) recorder_->Open(name);
  return std::make_unique<Observer>(this, context.op);
}

// --------------------------------------------------------------- TimingSink

void TimingSink::PublishComponentStatistics(
    const StatisticsKey& key, const ComponentMetadata& metadata,
    const std::vector<uint64_t>& replaced_component_ids,
    std::shared_ptr<const Synopsis> synopsis,
    std::shared_ptr<const Synopsis> anti_synopsis) {
  ScopedSpan span(recorder_, "stats.publish");
  const int64_t start = NowNs();
  inner_->PublishComponentStatistics(key, metadata, replaced_component_ids,
                                     std::move(synopsis),
                                     std::move(anti_synopsis));
  publish_ns_ += NowNs() - start;
  ++publishes_;
}

}  // namespace lsmstats::perfbench
