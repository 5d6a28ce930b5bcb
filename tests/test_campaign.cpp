// The experiment-campaign engine: spec parsing/expansion, the
// content-addressed result cache, crash-safe journal resume, parallel
// execution, and byte-identity of the aggregated figures with the serial
// path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "exp/aggregator.hpp"
#include "exp/campaign.hpp"
#include "exp/journal.hpp"
#include "exp/result_cache.hpp"
#include "exp/runner.hpp"
#include "stats/report.hpp"

namespace hic::exp {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("hic_campaign_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str(const char* leaf) const {
    return (path / leaf).string();
  }
};

// A deliberately small spec: 2 apps x 2 configs plus a 2-value sweep whose
// second value duplicates a timing point (digest dedup must collapse it).
const char* kSmokeSpec = R"({
  "name": "t",
  "groups": [
    {"name": "timing", "workloads": ["fft", "lu-cont"],
     "configs": ["HCC", "B+M+I"],
     "machine": {"preset": "intra", "staleness_monitor": false}},
    {"name": "sweep", "workloads": ["fft"], "configs": ["B+M+I"],
     "machine": {"preset": "intra", "staleness_monitor": false,
                 "meb_entries": [4, 16]}}
  ],
  "aggregates": [
    {"kind": "fig10", "group": "timing"},
    {"kind": "summary", "group": "sweep"}
  ]
})";

TEST(CampaignSpec, ExpansionSweepAndDedup) {
  const Campaign c = Campaign::parse(Json::parse(kSmokeSpec));
  EXPECT_EQ(c.name, "t");
  // 2x2 timing + 2x1 sweep.
  ASSERT_EQ(c.points.size(), 6u);
  EXPECT_EQ(c.points[0].app, "fft");
  EXPECT_EQ(c.points[0].config_label, "HCC");
  EXPECT_EQ(c.points[0].threads, 16);
  EXPECT_EQ(c.points[4].sweep_desc, "meb_entries=4");
  EXPECT_EQ(c.points[5].sweep_desc, "meb_entries=16");
  EXPECT_EQ(c.points[4].machine.meb_entries, 4);
  // meb_entries=16 equals the stock intra machine, so the sweep's second
  // point must share a digest with timing's fft/B+M+I point (index 1:
  // expansion is workload-major, config-minor).
  EXPECT_EQ(c.points[5].digest, c.points[1].digest);
  EXPECT_NE(c.points[4].digest, c.points[5].digest);
  std::set<std::string> digests;
  for (const auto& pt : c.points) digests.insert(pt.digest);
  EXPECT_EQ(digests.size(), 5u);
}

TEST(CampaignSpec, UnknownKeysAndBadRefsAreHardErrors) {
  auto parse = [](const std::string& text) {
    return Campaign::parse(Json::parse(text));
  };
  const std::string ok = kSmokeSpec;
  EXPECT_NO_THROW(parse(ok));
  // Unknown key at every level.
  EXPECT_THROW(parse(R"({"name":"x","groups":[],"aggregates":[],"extra":1})"),
               CheckFailure);
  EXPECT_THROW(
      parse(R"({"name":"x","groups":[{"name":"g","workloads":["fft"],
                "configs":["HCC"],"typo":1}],"aggregates":[]})"),
      CheckFailure);
  EXPECT_THROW(
      parse(R"({"name":"x","groups":[{"name":"g","workloads":["fft"],
                "configs":["HCC"],
                "machine":{"meb_entrees":8}}],"aggregates":[]})"),
      CheckFailure);
  // shard_threads is not a group key.
  EXPECT_THROW(
      parse(R"({"name":"x","groups":[{"name":"g","workloads":["ep"],
                "configs":["Addr+L"],"shard_threads":4}],"aggregates":[]})"),
      CheckFailure);
  // Config label from the wrong family.
  EXPECT_THROW(
      parse(R"({"name":"x","groups":[{"name":"g","workloads":["fft"],
                "configs":["Addr+L"]}],"aggregates":[]})"),
      CheckFailure);
  // Unknown workload / aggregate kind / dangling group reference.
  EXPECT_THROW(
      parse(R"({"name":"x","groups":[{"name":"g","workloads":["nope"],
                "configs":["HCC"]}],"aggregates":[]})"),
      CheckFailure);
  EXPECT_THROW(
      parse(R"({"name":"x","groups":[{"name":"g","workloads":["fft"],
                "configs":["HCC"]}],
                "aggregates":[{"kind":"fig99","group":"g"}]})"),
      CheckFailure);
  EXPECT_THROW(
      parse(R"({"name":"x","groups":[{"name":"g","workloads":["fft"],
                "configs":["HCC"]}],
                "aggregates":[{"kind":"fig9","group":"nope"}]})"),
      CheckFailure);
}

TEST(CampaignSpec, InjectSpecsValidateExpandAndKeyTheDigest) {
  auto parse = [](const std::string& text) {
    return Campaign::parse(Json::parse(text));
  };
  const char* without = R"({"name":"x","groups":[{"name":"g",
      "workloads":["fft"],"configs":["B+M+I"]}],"aggregates":[]})";
  const char* with = R"({"name":"x","groups":[{"name":"g",
      "workloads":["fft"],"configs":["B+M+I"],
      "inject":["drop-wb:p=0.01:seed=7","elide-wb:site=barrier-wb"]}],
      "aggregates":[]})";
  const Campaign plain = parse(without);
  const Campaign armed = parse(with);
  ASSERT_EQ(plain.points.size(), 1u);
  ASSERT_EQ(armed.points.size(), 1u);
  ASSERT_EQ(armed.points[0].inject.size(), 2u);
  // Armed points must not collide with fault-free cached results...
  EXPECT_NE(plain.points[0].digest, armed.points[0].digest);
  // ...and fault-free digests must not move now that the key exists (the
  // digest key is only emitted when "inject" is non-empty).
  const char* empty_inject = R"({"name":"x","groups":[{"name":"g",
      "workloads":["fft"],"configs":["B+M+I"],"inject":[]}],
      "aggregates":[]})";
  EXPECT_EQ(parse(empty_inject).points[0].digest, plain.points[0].digest);
  // Bad specs fail at parse time, not mid-campaign.
  EXPECT_THROW(
      parse(R"({"name":"x","groups":[{"name":"g","workloads":["fft"],
                "configs":["B+M+I"],"inject":["drop-wb:p=oops"]}],
                "aggregates":[]})"),
      CheckFailure);
  EXPECT_THROW(
      parse(R"({"name":"x","groups":[{"name":"g","workloads":["fft"],
                "configs":["B+M+I"],"inject":["elide-wb:site=nope"]}],
                "aggregates":[]})"),
      CheckFailure);
}

TEST(CampaignRunner, InjectedPointsRunTheFaultPlan) {
  // A timing-only fault keeps verification green while proving the rules
  // actually reach the Machine (the point must still verify and aggregate).
  const Campaign c = Campaign::parse(Json::parse(R"({
    "name": "inj", "groups": [
      {"name": "g", "workloads": ["fft"], "configs": ["B+M+I"],
       "machine": {"preset": "intra", "staleness_monitor": false},
       "inject": ["delay-noc:p=0.1:seed=3:retries=2"]}],
    "aggregates": [{"kind": "summary", "group": "g"}]})"));
  RunnerOptions opts;
  opts.progress = false;
  const CampaignResults r = run_campaign(c, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.all_verified());
}

TEST(ResultCacheTest, StoreLookupAndHygiene) {
  TempDir tmp("cache");
  ResultCache cache(tmp.str("c"));
  EXPECT_FALSE(cache.lookup("0123456789abcdef").has_value());
  cache.store("0123456789abcdef", "{\"digest\":\"0123456789abcdef\"}");
  const auto got = cache.lookup("0123456789abcdef");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "{\"digest\":\"0123456789abcdef\"}");
  // Non-hex digests could escape the cache directory; refuse them.
  EXPECT_THROW(cache.lookup("../../etc/passwd"), CheckFailure);
  EXPECT_THROW(cache.store("ABC", "x"), CheckFailure);
}

TEST(JournalTest, RecoversValidPrefixAndCompacts) {
  TempDir tmp("journal");
  const std::string path = tmp.str("j.jsonl");
  {
    Journal j(path);
    EXPECT_TRUE(j.recovered().empty());
    j.append("{\"digest\":\"aa\",\"x\":1}");
    j.append("{\"digest\":\"bb\",\"x\":2}");
    EXPECT_THROW(j.append("two\nlines"), CheckFailure);
  }
  // Simulate a crash mid-append: garbage tail after the valid lines.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "{\"digest\":\"cc\",\"x";  // torn write, no newline
  }
  {
    Journal j(path);
    ASSERT_EQ(j.recovered().size(), 2u);
    EXPECT_EQ(j.recovered()[0].digest, "aa");
    EXPECT_EQ(j.recovered()[1].digest, "bb");
  }
  // Reopening compacted away the torn tail.
  std::ifstream is(path);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "{\"digest\":\"aa\",\"x\":1}\n{\"digest\":\"bb\",\"x\":2}\n");
}

// One cheap simulated point for runner-level tests.
Campaign tiny_campaign() {
  return Campaign::parse(Json::parse(R"({
    "name": "tiny",
    "groups": [{"name": "g", "workloads": ["fft"],
                "configs": ["HCC", "B+M+I"],
                "machine": {"preset": "intra", "staleness_monitor": false}}],
    "aggregates": [{"kind": "summary", "group": "g"}]
  })"));
}

std::string render_all(const Campaign& c, const CampaignResults& r) {
  std::string out;
  for (const AggregateOutput& a : aggregate_campaign(c, r, /*csv=*/false))
    out += a.text;
  return out;
}

TEST(CampaignRunner, WarmCacheRerunIsPureReplayAndByteIdentical) {
  TempDir tmp("warm");
  const Campaign c = Campaign::parse(Json::parse(kSmokeSpec));
  ResultCache cache(tmp.str("cache"));

  RunnerOptions cold;
  cold.jobs = 4;
  cold.cache = &cache;
  const CampaignResults r1 = run_campaign(c, cold);
  ASSERT_TRUE(r1.ok()) << (r1.errors.empty() ? "" : r1.errors[0]);
  EXPECT_TRUE(r1.all_verified());
  EXPECT_EQ(r1.counters.points, 5u);  // digest dedup collapsed one point
  EXPECT_EQ(r1.counters.simulated, 5u);
  EXPECT_EQ(r1.counters.cache_hits, 0u);

  const CampaignResults r2 = run_campaign(c, cold);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.counters.simulated, 0u);
  EXPECT_EQ(r2.counters.cache_hits, 5u);
  EXPECT_EQ(render_all(c, r2), render_all(c, r1));
}

TEST(CampaignRunner, JournalTruncatedAtArbitraryOffsetsResumesByteIdentical) {
  TempDir tmp("resume");
  const Campaign c = tiny_campaign();

  // Uninterrupted run (the oracle) writes the reference journal.
  const std::string ref_journal = tmp.str("ref.jsonl");
  RunnerOptions opts;
  opts.jobs = 2;
  Journal ref(ref_journal);
  opts.journal = &ref;
  const CampaignResults oracle = run_campaign(c, opts);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle.counters.simulated, 2u);
  const std::string expected = render_all(c, oracle);

  std::ifstream is(ref_journal, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());

  // Crash the journal at arbitrary byte offsets — start, torn first line,
  // the line boundary, a torn second line, the full file — and resume.
  const std::size_t newline = bytes.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::size_t offsets[] = {0,
                                 1,
                                 newline / 2,
                                 newline,
                                 newline + 1,
                                 newline + 1 + (bytes.size() - newline) / 2,
                                 bytes.size() - 1,
                                 bytes.size()};
  for (const std::size_t off : offsets) {
    const std::string path =
        tmp.str(("trunc" + std::to_string(off) + ".jsonl").c_str());
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(off));
    }
    Journal j(path);
    // A record is recoverable once its JSON is complete — the trailing
    // newline is not required (truncation at a line's last byte loses
    // nothing).
    const std::size_t whole_lines = (off >= newline ? 1u : 0u) +
                                    (off >= bytes.size() - 1 ? 1u : 0u);
    ASSERT_EQ(j.recovered().size(), whole_lines) << "offset " << off;

    RunnerOptions ropts;
    ropts.jobs = 2;
    ropts.journal = &j;
    const CampaignResults r = run_campaign(c, ropts);
    ASSERT_TRUE(r.ok()) << "offset " << off;
    EXPECT_EQ(r.counters.journal_hits, whole_lines) << "offset " << off;
    EXPECT_EQ(r.counters.simulated, 2u - whole_lines) << "offset " << off;
    EXPECT_EQ(render_all(c, r), expected) << "offset " << off;
  }
}

TEST(CampaignRunner, RepeatIsADeterminismCanaryAndNotInTheDigest) {
  Campaign c = tiny_campaign();
  CampaignPoint pt = c.points[0];
  const std::string digest_once = pt.digest;
  pt.repeat = 2;
  EXPECT_EQ(point_digest(pt), digest_once);
  const agg::PointStats p = execute_point(pt);  // re-runs and compares
  EXPECT_TRUE(p.verified);
  EXPECT_GT(p.exec_cycles, 0u);
}

TEST(CampaignRunner, CampaignAggregateMatchesSerialBenchPath) {
  // The campaign path and the bench path must call the same renderer on the
  // same numbers: simulate the tiny campaign via run_campaign, then via the
  // direct serial loop, and compare the rendered bytes.
  const Campaign c = tiny_campaign();
  const CampaignResults r = run_campaign(c, RunnerOptions{});
  ASSERT_TRUE(r.ok());

  agg::PointSet serial;
  for (const CampaignPoint& pt : c.points) serial.add(execute_point(pt));
  std::string serial_text = agg::render_summary(serial, false);

  const auto aggs = aggregate_campaign(c, r, false);
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].text, serial_text);
}

TEST(StatsInterchange, OpFieldsMatchesReportFields) {
  // The "ops" keys of the stats report and the PointStats interchange come
  // from different tables; they must agree key-for-key, in order, and read
  // the same counters.
  std::vector<const ReportField*> report_ops;
  for (const ReportField& f : report_fields())
    if (std::string(f.group) == "ops") report_ops.push_back(&f);
  const auto ops = op_fields();
  ASSERT_EQ(report_ops.size(), ops.size());

  SimStats s(4);
  std::uint64_t v = 1;
  for (const OpField& f : ops) s.ops().*f.member = v++;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_STREQ(report_ops[i]->key, ops[i].key) << i;
    EXPECT_EQ(report_ops[i]->get(s), s.ops().*ops[i].member) << ops[i].key;
  }
}

}  // namespace
}  // namespace hic::exp
