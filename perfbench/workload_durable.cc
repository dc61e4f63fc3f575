// durable_ingest: one client streams add and retract batches through
// PersistentStore::AppendBatch / AppendRetractBatch with sync = true (an
// OK return is an fsync'd, acknowledged batch), snapshotting every
// kSnapshotEvery appends and compacting every other snapshot. No
// evaluation runs: this workload measures storage (codec, WAL, snapshot,
// store) only.
//
// The run is a sequence of identical episodes. Each sets up a fresh store
// directory (load the parsed base facts, snapshot), streams a fixed number
// of appends that ends kTailAppends after a snapshot, then drops the store
// without Close, as a crashed process would, and recovers the directory
// with Open. Stores never reclaim tombstoned slots, so a fixed episode
// length keeps every append and every recovery comparable.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "perfbench/generator.h"
#include "perfbench/harness.h"
#include "perfbench/stats.h"
#include "src/parser/parser.h"
#include "src/storage/codec.h"
#include "src/storage/store.h"

namespace perfbench {

namespace {

constexpr int kDepartments = 8;  // with kStudents, about 15k facts
constexpr int kStudents = 300;
constexpr size_t kLoadBatchFacts = 1024;
constexpr int kAddFacts = 64;
constexpr int kRetractFacts = 16;  // four retract batches per add
constexpr int kCycle = 1 + kAddFacts / kRetractFacts;  // appends
constexpr int kSnapshotEvery = 256;  // appends
constexpr int kCompactEvery = 2;     // snapshots
// The crash comes this many appends after the last snapshot, so every
// recovery replays the same WAL tail.
constexpr int kTailAppends = 32;
constexpr int kAppendsPerEpisode = 4 * kSnapshotEvery + kTailAppends;
// Each episode sets up this many times and keeps the last; setup_s is the
// median over all of them, so it does not rest on a handful of samples.
constexpr int kSetupsPerEpisode = 3;

lrpdb::storage::FactBatch ToBatch(const std::vector<Fact>& facts) {
  lrpdb::storage::FactBatch batch;
  for (const Fact& f : facts) batch.facts.push_back(f.ToBatchFact());
  return batch;
}

// The parsed database as load batches: the declarations first, then every
// stored fact, kLoadBatchFacts per batch.
std::vector<lrpdb::storage::FactBatch> LoadBatches(const lrpdb::Database& db) {
  std::vector<lrpdb::storage::FactBatch> batches(1);
  for (const std::string& name : db.RelationNames()) {
    auto schema = db.SchemaOf(name);
    if (schema.ok()) batches[0].decls.push_back({name, *schema});
  }
  for (const std::string& name : db.RelationNames()) {
    auto relation = db.Relation(name);
    if (!relation.ok()) continue;
    const lrpdb::TupleStore& store = (*relation)->store();
    for (size_t i = 0; i < store.size(); ++i) {
      const lrpdb::EntryId id = static_cast<lrpdb::EntryId>(i);
      if (!store.is_live(id)) continue;
      const lrpdb::GeneralizedTuple& t = store.tuple(id);
      lrpdb::storage::BatchFact fact;
      fact.relation = name;
      fact.lrps = t.lrps();
      for (lrpdb::DataValue d : t.data()) {
        fact.data.push_back(db.interner().NameOf(d));
      }
      fact.constraint = t.constraint();
      if (batches.back().facts.size() >= kLoadBatchFacts) {
        batches.emplace_back();
      }
      batches.back().facts.push_back(std::move(fact));
    }
  }
  return batches;
}

// One episode's state.
struct Episode {
  std::string dir;
  std::unique_ptr<Generator> gen;
  std::unique_ptr<lrpdb::Database> db;
  std::optional<lrpdb::storage::PersistentStore> store;
  std::deque<Fact> live;  // retractable facts, oldest first
};

// Set-up: generate the base facts and parse them into `parsed`.
lrpdb::Status SetUp(uint64_t seed, Episode* e, lrpdb::Database* parsed,
                    double* parse_ms, SpanRecorder* spans) {
  e->gen = std::make_unique<Generator>(seed, kDepartments, kStudents);
  const std::string source = Source(e->gen->base());
  const int64_t parse_start = NowNs();
  lrpdb::StatusOr<lrpdb::ParsedUnit> unit = [&] {
    Scope span(spans, "Parse");
    return lrpdb::Parse(source, parsed);
  }();
  *parse_ms = SecondsSince(parse_start) * 1e3;
  return unit.status();
}

// Loads the parsed base facts into a fresh store directory with fsync'd
// appends and snapshots it. Timed apart from set-up, as load_s.
lrpdb::Status Load(const lrpdb::Database& parsed, const std::string& dir,
                   Episode* e) {
  e->dir = dir;
  e->db = std::make_unique<lrpdb::Database>();
  LRPDB_ASSIGN_OR_RETURN(lrpdb::storage::PersistentStore store,
                         lrpdb::storage::PersistentStore::Open(dir,
                                                               e->db.get()));
  e->store.emplace(std::move(store));
  for (const lrpdb::storage::FactBatch& batch : LoadBatches(parsed)) {
    LRPDB_RETURN_IF_ERROR(e->store->AppendBatch(batch));
  }
  LRPDB_RETURN_IF_ERROR(e->store->WriteSnapshot());
  for (const Fact& f : e->gen->base()) {
    if (f.rel != Rel::kTeaches) e->live.push_back(f);
  }
  return lrpdb::OkStatus();
}

}  // namespace

void RunDurableIngest(const Options& o, Results* out) {
  SpanRecorder spans(o.trace);
  const std::string dir = o.work_dir + "/durable-" + std::to_string(o.seed) +
                          "-" + std::to_string(::getpid());
  std::error_code ignored;

  std::vector<double> setup_s, load_s, parse_ms, recover_s;
  std::vector<double> append_ms, snapshot_ms, compact_ms;
  std::vector<double> by_parity[2];  // append times, untraced / traced
  int64_t appends = 0, snapshots = 0, ops = 0, op = 0;
  int64_t user_bytes = 0, wal_appends = 0, wal_bytes = 0, snap_bytes = 0;
  uint64_t replayed = 0;
  double outside_s = 0;  // set-ups, loads, recoveries and checks
  double check_s = 0;

  auto timed = [&](const char* name, auto&& call) {
    spans.set_op(++op);
    const int64_t start = NowNs();
    lrpdb::Status status;
    {
      Scope span(&spans, name);
      status = call();
    }
    ++ops;
    out->AttemptOk(status, name);
    return SecondsSince(start) * 1e3;
  };

  // Streams one episode's appends; a snapshot (and every kCompactEvery-th
  // time a compaction) follows every kSnapshotEvery appends.
  auto stream = [&](Episode& e) {
    lrpdb::storage::PersistentStore& store = *e.store;
    const int64_t live0 = LiveFacts(*e.db);
    const int64_t wal_appends0 = Counter("store.wal.appends");
    const int64_t wal_bytes0 = Counter("store.wal.appended_bytes");
    const int64_t snap_bytes0 = Counter("store.snapshot.written_bytes");
    int64_t added = 0, retracted = 0;
    for (int i = 0; i < kAppendsPerEpisode; ++i) {
      const size_t parity = static_cast<size_t>((appends / kCycle) % 2);
      spans.set_enabled(o.trace && parity == 1);
      const bool retract = i % kCycle != 0;
      std::vector<Fact> facts;
      if (retract) {
        facts.assign(e.live.begin(), e.live.begin() + kRetractFacts);
        e.live.erase(e.live.begin(), e.live.begin() + kRetractFacts);
        retracted += kRetractFacts;
      } else {
        facts = e.gen->Fresh(kAddFacts);
        e.live.insert(e.live.end(), facts.begin(), facts.end());
        added += kAddFacts;
      }
      lrpdb::storage::FactBatch batch = ToBatch(facts);
      user_bytes +=
          static_cast<int64_t>(lrpdb::storage::EncodeFactBatch(batch).size());
      append_ms.push_back(
          retract
              ? timed("AppendRetractBatch",
                      [&] { return store.AppendRetractBatch(batch); })
              : timed("AppendBatch", [&] { return store.AppendBatch(batch); }));
      by_parity[parity].push_back(append_ms.back());
      ++appends;
      if ((i + 1) % kSnapshotEvery == 0) {
        snapshot_ms.push_back(
            timed("WriteSnapshot", [&] { return store.WriteSnapshot(); }));
        if (++snapshots % kCompactEvery == 0) {
          compact_ms.push_back(
              timed("Compact", [&] { return store.Compact(); }));
        }
      }
    }
    spans.set_enabled(o.trace);
    wal_appends += Counter("store.wal.appends") - wal_appends0;
    wal_bytes += Counter("store.wal.appended_bytes") - wal_bytes0;
    snap_bytes += Counter("store.snapshot.written_bytes") - snap_bytes0;
    // Every retraction must have matched a live fact: the live count moved
    // by exactly the facts added minus the facts retracted.
    out->Check(LiveFacts(*e.db) == live0 + added - retracted,
               "live fact count drifted: a retraction missed");
  };

  // Drops the store without Close and recovers the directory.
  auto crash_and_recover = [&](Episode& e) {
    const std::string expected = e.db->ToString();
    e.store.reset();
    lrpdb::Database recovered;
    const int64_t start = NowNs();
    lrpdb::StatusOr<lrpdb::storage::PersistentStore> reopened = [&] {
      Scope span(&spans, "Open");
      return lrpdb::storage::PersistentStore::Open(e.dir, &recovered);
    }();
    recover_s.push_back(SecondsSince(start));
    if (!reopened.ok()) {
      out->Check(false, "recovery Open: " + reopened.status().ToString());
      return;
    }
    const int64_t check_start = NowNs();
    replayed = reopened->recovery_info().replayed_records;
    out->Check(reopened->recovery_info().loaded_snapshot &&
                   replayed == static_cast<uint64_t>(kTailAppends),
               "recovery replayed " + std::to_string(replayed) +
                   " WAL records, expected the " +
                   std::to_string(kTailAppends) +
                   " appended since the last snapshot");
    out->Check(recovered.ToString() == expected,
               "recovered database differs from the pre-crash state");
    check_s += SecondsSince(check_start);
  };

  // Closed loop over episodes: for --seconds, and on until append_p99 has
  // enough samples and recover_s at least three. With tracing on, every
  // other add/retract cycle records spans; the ratio of the two halves'
  // median append times is the tracing overhead.
  const int64_t need_appends = MinSamplesFor(99);
  InputProfile profile;
  int64_t episodes = 0;
  const int64_t start = NowNs();
  while ((SecondsSince(start) < o.seconds ||
          static_cast<int64_t>(append_ms.size()) < need_appends ||
          recover_s.size() < 3) &&
         SecondsSince(start) < kMeasureCapSeconds) {
    const int64_t outside_start = NowNs();
    std::filesystem::remove_all(dir, ignored);
    Episode e;
    std::optional<lrpdb::Database> parsed;
    lrpdb::Status status;
    double parse = 0;
    for (int k = 0; k < kSetupsPerEpisode && status.ok(); ++k) {
      e = Episode{};
      parsed.reset();  // release the previous one before building anew
      parsed.emplace();
      const int64_t setup_start = NowNs();
      status = [&] {
        Scope span(&spans, "setup");
        return SetUp(o.seed, &e, &*parsed, &parse, &spans);
      }();
      setup_s.push_back(SecondsSince(setup_start));
      parse_ms.push_back(parse);
    }
    if (status.ok()) {
      const int64_t load_start = NowNs();
      Scope span(&spans, "load");
      status = Load(*parsed, dir, &e);
      load_s.push_back(SecondsSince(load_start));
    }
    if (!status.ok()) {
      out->Check(false, "set-up: " + status.ToString());
      break;
    }
    ++episodes;
    profile = Profile(e.gen->base());
    outside_s += SecondsSince(outside_start);
    stream(e);
    const int64_t recover_start = NowNs();
    crash_and_recover(e);
    outside_s += SecondsSince(recover_start);
  }
  const double wall_s = SecondsSince(start);
  const double peak_rss = PeakRssMb();
  std::filesystem::remove_all(dir, ignored);
  if (o.trace) {
    out->SetLayer("trace.overhead_ratio",
                  Median(by_parity[1]) / Median(by_parity[0]));
  }

  out->notes.push_back("input: base " + profile.ToString());
  out->notes.push_back(
      "stream: " + std::to_string(episodes) + " episodes of " +
      std::to_string(kAppendsPerEpisode) + " appends (1 add of " +
      std::to_string(kAddFacts) + " per " + std::to_string(kCycle - 1) +
      " retracts of " + std::to_string(kRetractFacts) + "), " +
      std::to_string(snapshots) + " snapshots, fsync on every append");

  const int64_t n_appends = static_cast<int64_t>(append_ms.size());
  out->Set("setup_s", Median(setup_s), "s",
           static_cast<int64_t>(setup_s.size()));
  out->Set("load_s", Median(load_s), "s",
           static_cast<int64_t>(load_s.size()));
  out->Set("append_p50_ms", Median(append_ms), "ms", n_appends);
  out->Set("append_p99_ms", Percentile(append_ms, 99), "ms", n_appends);
  out->Set("recover_s", Median(recover_s), "s",
           static_cast<int64_t>(recover_s.size()));
  out->Set("write_amp",
           user_bytes > 0 ? static_cast<double>(wal_bytes + snap_bytes) /
                                static_cast<double>(user_bytes)
                          : 0.0,
           "ratio", appends);
  out->Set("ops_per_s",
           static_cast<double>(ops) / (wall_s - outside_s),
           "1/s", ops);
  out->Set("peak_rss_mb", peak_rss, "MiB");

  const double parse = Median(parse_ms);
  out->SetLayer("parser.parse_ms", parse);
  out->SetLayer("parser.facts_per_s",
                static_cast<double>(profile.facts) / (parse / 1e3));
  out->SetLayer("wal.appends", static_cast<double>(wal_appends));
  out->SetLayer("wal.appended_bytes",
                static_cast<double>(wal_bytes) /
                    static_cast<double>(std::max<int64_t>(wal_appends, 1)));
  out->SetLayer("wal.replayed_records", static_cast<double>(replayed));
  out->SetLayer("snapshot.write_ms", Median(snapshot_ms));
  out->SetLayer("snapshot.written_bytes",
                static_cast<double>(snap_bytes) /
                    static_cast<double>(std::max<int64_t>(snapshots, 1)));
  out->SetLayer("store.compact_ms", Median(compact_ms));
  out->SetLayer("oracle.check_ms", check_s * 1e3);
  WriteSpans(o, spans, out);
}

}  // namespace perfbench
