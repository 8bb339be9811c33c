// Tests for fsr::obs: registry semantics (stable handles, kind conflicts,
// deterministic snapshots, registration races), histogram bucketing, tracer
// span/counter/instant recording and Chrome trace_event rendering, the
// flight recorder's lock-free rings and diagnostic dumps, the OpenMetrics
// exporter, and the no-channel-no-overhead contracts.
//
// The registry is PROCESS-GLOBAL and other suites (and instrumented
// subsystems) also write to it, so everything here asserts deltas against
// freshly captured floors or uses test-unique instrument names — never
// absolute process totals.
//
// Runs under the `fast` ctest label.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "api/service.h"
#include "api/wire.h"
#include "groundtruth/sat_solver.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace fsr::obs {
namespace {

TEST(Metrics, CounterHandleIsStableAndShared) {
  Counter& a = registry().counter("test_obs.counter_stable");
  Counter& b = registry().counter("test_obs.counter_stable");
  EXPECT_EQ(&a, &b);
  const std::uint64_t floor = a.value();
  b.add(3);
  a.add();
  EXPECT_EQ(a.value(), floor + 4);
}

TEST(Metrics, KindConflictThrows) {
  registry().counter("test_obs.kind_conflict");
  EXPECT_THROW(registry().gauge("test_obs.kind_conflict"), std::logic_error);
  EXPECT_THROW(registry().histogram("test_obs.kind_conflict"),
               std::logic_error);
}

TEST(Metrics, GaugeSetsAndAdds) {
  Gauge& gauge = registry().gauge("test_obs.gauge");
  gauge.set(42);
  EXPECT_EQ(gauge.value(), 42);
  gauge.add(-50);
  EXPECT_EQ(gauge.value(), -8);
}

TEST(Metrics, HistogramPowerOfTwoBuckets) {
  Histogram& hist = registry().histogram("test_obs.histogram");
  const std::uint64_t count_floor = hist.count();
  const std::uint64_t sum_floor = hist.sum();
  // Bucket b counts samples in (2^(b-1), 2^b]; zeros and ones land in 0.
  const std::uint64_t b0 = hist.bucket(0), b1 = hist.bucket(1),
                      b2 = hist.bucket(2), b3 = hist.bucket(3);
  hist.record(0);
  hist.record(1);
  hist.record(2);
  hist.record(3);
  hist.record(8);
  EXPECT_EQ(hist.count(), count_floor + 5);
  EXPECT_EQ(hist.sum(), sum_floor + 14);
  EXPECT_EQ(hist.bucket(0), b0 + 2);  // 0, 1
  EXPECT_EQ(hist.bucket(1), b1 + 1);  // 2
  EXPECT_EQ(hist.bucket(2), b2 + 1);  // 3
  EXPECT_EQ(hist.bucket(3), b3 + 1);  // 8
}

TEST(Metrics, SnapshotIsSortedByNameAndRendersCanonicalJson) {
  registry().counter("test_obs.zz_last").add(1);
  registry().counter("test_obs.aa_first").add(2);
  const MetricsSnapshot snapshot = registry().snapshot();
  ASSERT_GE(snapshot.metrics.size(), 2u);
  for (std::size_t i = 1; i < snapshot.metrics.size(); ++i) {
    EXPECT_LT(snapshot.metrics[i - 1].name, snapshot.metrics[i].name);
  }
  // The JSON must parse and carry every instrument as a key.
  const std::string json = to_json(snapshot);
  const api::json::Value parsed = api::json::parse(json);
  EXPECT_NE(parsed.find("test_obs.zz_last"), nullptr);
  EXPECT_NE(parsed.find("test_obs.aa_first"), nullptr);
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  Counter& counter = registry().counter("test_obs.concurrent");
  const std::uint64_t floor = counter.value();
  constexpr int k_threads = 8;
  constexpr int k_adds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&counter]() {
      for (int i = 0; i < k_adds; ++i) counter.add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), floor + k_threads * k_adds);
}

TEST(Trace, SpanIsNoOpWithoutTracer) {
  ASSERT_EQ(tracer(), nullptr);  // suites must not leak an installed tracer
  Span span("test_obs.should_not_record");
  EXPECT_FALSE(span.active());
  span.arg("ignored", std::uint64_t{1});  // must not crash
}

TEST(Trace, SpansRecordWithArgsAndNesting) {
  Tracer local;
  install_tracer(&local);
  {
    Span outer("test_obs.outer");
    outer.arg("label", std::string("a\"b"));  // exercises escaping
    {
      Span inner("test_obs.inner");
      inner.arg("n", std::uint64_t{7});
      inner.arg("flag", true);
    }
  }
  install_tracer(nullptr);
  EXPECT_EQ(local.event_count(), 2u);

  const std::string json = local.chrome_trace_json();
  const api::json::Value parsed = api::json::parse(json);
  const api::json::Value* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Metadata ("M") events lead the stream so viewers label tracks before
  // any data event references them; the data events follow.
  std::vector<const api::json::Value*> list;
  for (const api::json::Value& event : events->as_array("traceEvents")) {
    if (event.find("cat")->as_string("cat") == "__metadata") continue;
    list.push_back(&event);
  }
  EXPECT_EQ(events->as_array("traceEvents")
                .front()
                .find("ph")
                ->as_string("ph"),
            "M");
  ASSERT_EQ(list.size(), 2u);
  // Same thread, RAII scoping: the outer span must contain the inner.
  std::uint64_t outer_start = 0, outer_end = 0, inner_start = 0, inner_end = 0;
  for (const api::json::Value* event_ptr : list) {
    const api::json::Value& event = *event_ptr;
    const std::string name = event.find("name")->as_string("name");
    const std::uint64_t ts = event.find("ts")->as_u64("ts");
    const std::uint64_t dur = event.find("dur")->as_u64("dur");
    EXPECT_EQ(event.find("ph")->as_string("ph"), "X");
    if (name == "test_obs.outer") {
      outer_start = ts;
      outer_end = ts + dur;
      EXPECT_EQ(event.find("args")->find("label")->as_string("label"), "a\"b");
    } else {
      EXPECT_EQ(name, "test_obs.inner");
      inner_start = ts;
      inner_end = ts + dur;
      EXPECT_EQ(event.find("args")->find("n")->as_u64("n"), 7u);
    }
  }
  EXPECT_LE(outer_start, inner_start);
  EXPECT_LE(inner_end, outer_end);
}

TEST(Trace, StringLiteralArgsRenderAsStrings) {
  // A const char* must not decay to the bool overload.
  Tracer local;
  install_tracer(&local);
  {
    Span span("test_obs.literal");
    span.arg("kind", "analyze-safety");
  }
  install_tracer(nullptr);
  const api::json::Value parsed = api::json::parse(local.chrome_trace_json());
  for (const api::json::Value& event :
       parsed.find("traceEvents")->as_array("traceEvents")) {
    if (event.find("name")->as_string("name") != "test_obs.literal") continue;
    EXPECT_EQ(event.find("args")->find("kind")->as_string("kind"),
              "analyze-safety");
    return;
  }
  FAIL() << "span test_obs.literal missing from the trace";
}

TEST(Trace, ServiceExecuteSpansNameTheKindAndTheDerivationSteps) {
  Tracer local;
  install_tracer(&local);
  {
    api::AnalysisService service;
    for (const char* line : {R"({"kind": "analyze-safety", "gadget": "bad"})",
                             R"({"kind": "repair", "gadget": "bad"})"}) {
      ASSERT_TRUE(service.call(api::wire::parse_request(line)).error.empty());
    }
  }
  install_tracer(nullptr);
  const api::json::Value parsed = api::json::parse(local.chrome_trace_json());
  std::vector<std::string> kinds;
  std::size_t translates = 0, builds = 0;
  for (const api::json::Value& event :
       parsed.find("traceEvents")->as_array("traceEvents")) {
    const std::string name = event.find("name")->as_string("name");
    if (name == "service.execute") {
      kinds.push_back(event.find("args")->find("kind")->as_string("kind"));
    }
    if (name == "safety.translate") ++translates;
    if (name == "session.build") ++builds;
  }
  EXPECT_EQ(kinds, (std::vector<std::string>{"analyze-safety", "repair"}));
  EXPECT_EQ(translates, 2u);  // one per request
  EXPECT_EQ(builds, 2u);      // the repair's cold strict gate and oracle
}

TEST(Trace, SpanBoundAtConstructionSurvivesUninstall) {
  // A span holds the tracer it saw at construction: uninstalling mid-span
  // must neither drop the event nor crash.
  Tracer local;
  install_tracer(&local);
  {
    Span span("test_obs.mid_uninstall");
    install_tracer(nullptr);
  }
  EXPECT_EQ(local.event_count(), 1u);
}

// ------------------------------------------------------- registry races --

TEST(Metrics, ConcurrentRegistrationYieldsOneStableInstrument) {
  // Threads race FIRST-USE registration of the same names (rotated start
  // offsets so the races land on every name): all of them must resolve to
  // the same instrument and no increment may be lost.
  constexpr int k_threads = 8;
  constexpr int k_names = 6;
  constexpr int k_adds = 500;
  std::vector<std::string> names;
  for (int n = 0; n < k_names; ++n) {
    names.push_back("test_obs.reg_race_" + std::to_string(n));
  }
  std::vector<std::array<Counter*, k_names>> seen(k_threads);
  std::vector<std::thread> threads;
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&, t]() {
      for (int n = 0; n < k_names; ++n) {
        const int pick = (n + t) % k_names;
        Counter& counter = registry().counter(names[static_cast<std::size_t>(pick)]);
        seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(pick)] =
            &counter;
        for (int i = 0; i < k_adds; ++i) counter.add();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int n = 0; n < k_names; ++n) {
    for (int t = 1; t < k_threads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(n)],
                seen[0][static_cast<std::size_t>(n)])
          << names[static_cast<std::size_t>(n)];
    }
    EXPECT_EQ(seen[0][static_cast<std::size_t>(n)]->value(),
              static_cast<std::uint64_t>(k_threads) * k_adds)
        << names[static_cast<std::size_t>(n)];
  }
}

TEST(Metrics, KindConflictsStayDeterministicUnderContention) {
  // Fix the winning kind first, then race matching and conflicting
  // registrations: every conflicting call must throw, every matching call
  // must succeed, with no torn state either way.
  registry().counter("test_obs.race_kind");
  constexpr int k_threads = 8;
  constexpr int k_rounds = 100;
  std::atomic<int> conflicts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < k_rounds; ++i) {
        if (t % 2 == 0) {
          registry().counter("test_obs.race_kind").add();
        } else {
          try {
            registry().gauge("test_obs.race_kind");
            ADD_FAILURE() << "kind conflict must throw";
          } catch (const std::logic_error&) {
            conflicts.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(conflicts.load(), (k_threads / 2) * k_rounds);
  EXPECT_EQ(registry().counter("test_obs.race_kind").value(),
            static_cast<std::uint64_t>(k_threads / 2) * k_rounds);
}

// ------------------------------------------------------ flight recorder --

TEST(Recorder, KindSpellingsAreStable) {
  EXPECT_STREQ(to_string(RecorderEventKind::request_begin), "request-begin");
  EXPECT_STREQ(to_string(RecorderEventKind::request_end), "request-end");
  EXPECT_STREQ(to_string(RecorderEventKind::solver_query), "solver-query");
  EXPECT_STREQ(to_string(RecorderEventKind::cache_eviction), "cache-eviction");
  EXPECT_STREQ(to_string(RecorderEventKind::error), "error");
  EXPECT_STREQ(to_string(RecorderEventKind::slow_request), "slow-request");
  EXPECT_STREQ(to_string(RecorderEventKind::mark), "mark");
}

TEST(Recorder, RecordsAndDrainsInSeqOrder) {
  FlightRecorder local(16);
  local.record(RecorderEventKind::mark, "alpha", 1, 2);
  local.record(RecorderEventKind::solver_query, "sat.test", 10, 20);
  local.record(RecorderEventKind::error, "boom", 3);
  const std::vector<RecorderEvent> events = local.drain();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
  }
  EXPECT_EQ(std::string(events[0].detail), "alpha");
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 2u);
  EXPECT_EQ(events[1].kind, RecorderEventKind::solver_query);
  EXPECT_EQ(std::string(events[1].detail), "sat.test");
  EXPECT_EQ(events[2].kind, RecorderEventKind::error);
  EXPECT_LE(events[0].ts_us, events[2].ts_us);  // monotone per thread
  EXPECT_EQ(events[0].tid, events[2].tid);      // one writer here
  EXPECT_EQ(local.recorded(), 3u);
  EXPECT_EQ(local.dropped(), 0u);
}

TEST(Recorder, DetailTruncatesInsteadOfOverflowing) {
  FlightRecorder local(4);
  local.record(RecorderEventKind::mark, std::string(200, 'x'));
  const std::vector<RecorderEvent> events = local.drain();
  ASSERT_EQ(events.size(), 1u);
  const std::string detail(events[0].detail);
  EXPECT_EQ(detail, std::string(RecorderEvent::k_detail_capacity - 1, 'x'));
}

TEST(Recorder, WrapKeepsTheNewestAndCountsTheDrop) {
  FlightRecorder local(4);
  for (int i = 0; i < 10; ++i) {
    local.record(RecorderEventKind::mark, "e" + std::to_string(i),
                 static_cast<std::uint64_t>(i));
  }
  const std::vector<RecorderEvent> events = local.drain();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].seq,
              static_cast<std::uint64_t>(6 + i));
    EXPECT_EQ(std::string(events[static_cast<std::size_t>(i)].detail),
              "e" + std::to_string(6 + i));
  }
  EXPECT_EQ(local.recorded(), 10u);
  EXPECT_EQ(local.dropped(), 6u);
}

TEST(Recorder, DrainMergesPerThreadRingsByGlobalSeq) {
  constexpr int k_threads = 4;
  constexpr int k_events = 200;
  FlightRecorder local(k_threads * k_events);  // per-thread: no ring wraps
  std::vector<std::thread> threads;
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&local]() {
      for (int i = 0; i < k_events; ++i) {
        local.record(RecorderEventKind::mark, "m");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<RecorderEvent> events = local.drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(k_threads * k_events));
  // seq is the global claim order: the quiesced merge is exactly 0..N-1.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
  }
  EXPECT_EQ(local.dropped(), 0u);
}

TEST(Recorder, RecordEventNeedsAnInstalledRecorder) {
  ASSERT_EQ(recorder(), nullptr);  // suites must not leak an installed one
  record_event(RecorderEventKind::mark, "dropped-on-the-floor");  // no crash
  FlightRecorder local(8);
  install_recorder(&local);
  EXPECT_EQ(recorder(), &local);
  record_event(RecorderEventKind::mark, "captured", 5);
  install_recorder(nullptr);
  EXPECT_EQ(recorder(), nullptr);
  const std::vector<RecorderEvent> events = local.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].detail), "captured");
  EXPECT_EQ(events[0].a, 5u);
}

TEST(Recorder, DiagnosticDumpRoundTripsThroughJson) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "fsr_test_obs_dump.json";
  fs::remove(path);
  FlightRecorder local(8);
  install_recorder(&local);
  record_event(RecorderEventKind::mark, "pre-dump", 11, 22);
  EXPECT_TRUE(write_diagnostic_dump(path.string(), "unit-test"));
  install_recorder(nullptr);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  const api::json::Value parsed = api::json::parse(contents);
  EXPECT_EQ(parsed.find("reason")->as_string("reason"), "unit-test");
  EXPECT_EQ(parsed.find("recorded")->as_u64("recorded"), 1u);
  EXPECT_EQ(parsed.find("dropped")->as_u64("dropped"), 0u);
  const auto& events = parsed.find("events")->as_array("events");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].find("kind")->as_string("kind"), "mark");
  EXPECT_EQ(events[0].find("detail")->as_string("detail"), "pre-dump");
  EXPECT_EQ(events[0].find("a")->as_u64("a"), 11u);
  EXPECT_EQ(events[0].find("b")->as_u64("b"), 22u);
  // The registry snapshot rides along so a post-mortem has process totals.
  ASSERT_NE(parsed.find("metrics"), nullptr);
  fs::remove(path);

  // An unwritable path reports failure instead of throwing — a crash
  // handler cannot afford an exception unwinding through it.
  EXPECT_FALSE(write_diagnostic_dump("/nonexistent-dir-xyz/dump.json", "x"));
}

// ---------------------------------------------------------- openmetrics --

TEST(Export, NamesSanitizeToTheOpenMetricsCharset) {
  EXPECT_EQ(openmetrics_name("sat.conflicts"), "fsr_sat_conflicts");
  EXPECT_EQ(openmetrics_name("service.requests.submitted"),
            "fsr_service_requests_submitted");
  EXPECT_EQ(openmetrics_name("weird-name:with/chars"),
            "fsr_weird_name_with_chars");
}

TEST(Export, RenderPassesTheLintOnAHandBuiltSnapshot) {
  MetricsSnapshot snapshot;
  MetricValue counter;
  counter.name = "demo.counter";
  counter.kind = MetricValue::Kind::counter;
  counter.value = 7;
  MetricValue gauge;
  gauge.name = "demo.gauge";
  gauge.kind = MetricValue::Kind::gauge;
  gauge.value = -3;
  MetricValue hist;
  hist.name = "demo.hist";
  hist.kind = MetricValue::Kind::histogram;
  hist.count = 5;
  hist.sum = 14;
  hist.buckets = {2, 1, 1, 1};  // the metrics.h doc example
  snapshot.metrics = {counter, gauge, hist};

  const std::string text = render_openmetrics(snapshot);
  EXPECT_NE(text.find("# HELP fsr_demo_counter "), std::string::npos);
  EXPECT_NE(text.find("# TYPE fsr_demo_counter counter\n"), std::string::npos);
  EXPECT_NE(text.find("fsr_demo_counter_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fsr_demo_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("fsr_demo_gauge -3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fsr_demo_hist histogram\n"), std::string::npos);
  // Power-of-two buckets become CUMULATIVE le series: counts 2,1,1,1 turn
  // into 2,3,4,5 over le=1,2,4,8, and +Inf repeats the total count.
  EXPECT_NE(text.find("fsr_demo_hist_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("fsr_demo_hist_bucket{le=\"2\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("fsr_demo_hist_bucket{le=\"4\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("fsr_demo_hist_bucket{le=\"8\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("fsr_demo_hist_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("fsr_demo_hist_sum 14\n"), std::string::npos);
  EXPECT_NE(text.find("fsr_demo_hist_count 5\n"), std::string::npos);
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");  // mandatory trailer
}

TEST(Export, RegistryRoundTripsThroughTheExposition) {
  registry().counter("test_obs.export_counter").add(9);
  const MetricsSnapshot snapshot = registry().snapshot();
  const std::string text = render_openmetrics(snapshot);
  EXPECT_NE(text.find("fsr_test_obs_export_counter_total"), std::string::npos);
  // Every registry instrument appears under its sanitized family name.
  for (const MetricValue& metric : snapshot.metrics) {
    EXPECT_NE(text.find("# TYPE " + openmetrics_name(metric.name) + " "),
              std::string::npos)
        << metric.name;
  }
}

TEST(Export, FileWriterWritesAtomicallyAndFlushesOnStop) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "fsr_test_obs_metrics.prom";
  fs::remove(path);
  registry().counter("test_obs.export_writer").add(1);
  MetricsFileWriter::Options options;
  options.path = path.string();
  options.interval = std::chrono::hours(1);  // never rewrites mid-test
  MetricsFileWriter writer(options);
  writer.stop();
  writer.stop();  // idempotent
  EXPECT_TRUE(writer.ok());
  EXPECT_GE(writer.writes(), 2u);  // the immediate write plus the final one

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("fsr_test_obs_export_writer_total"),
            std::string::npos);
  ASSERT_GE(contents.size(), 6u);
  EXPECT_EQ(contents.substr(contents.size() - 6), "# EOF\n");
  // The temp+rename idiom must not leave temp litter behind.
  for (const auto& entry : fs::directory_iterator(path.parent_path())) {
    EXPECT_EQ(entry.path().filename().string().find(
                  "fsr_test_obs_metrics.prom.tmp"),
              std::string::npos);
  }
  fs::remove(path);
}

// ------------------------------------------------- trace counters et al --

TEST(Trace, CountersInstantsAndThreadNamesRenderTheirChromePhases) {
  Tracer local;
  install_tracer(&local);
  set_thread_name("test-main");
  trace_counter("test_obs.level", std::uint64_t{42});
  trace_counter("test_obs.rate", 2.5);
  trace_instant("test_obs.tick");
  { Span span("test_obs.phases_span"); }
  install_tracer(nullptr);
  EXPECT_EQ(local.event_count(), 4u);  // metadata renders, never counts

  const api::json::Value parsed = api::json::parse(local.chrome_trace_json());
  const auto& events = parsed.find("traceEvents")->as_array("traceEvents");
  EXPECT_EQ(events.front().find("ph")->as_string("ph"), "M");
  bool saw_process = false, saw_thread = false, saw_u64 = false,
       saw_double = false, saw_instant = false, saw_span = false;
  for (const api::json::Value& event : events) {
    const std::string ph = event.find("ph")->as_string("ph");
    const std::string name = event.find("name")->as_string("name");
    if (ph == "M" && name == "process_name") {
      saw_process = true;
      EXPECT_EQ(event.find("args")->find("name")->as_string("name"), "fsr");
    } else if (ph == "M" && name == "thread_name" &&
               event.find("args")->find("name")->as_string("name") ==
                   "test-main") {
      saw_thread = true;
    } else if (name == "test_obs.level") {
      saw_u64 = true;
      EXPECT_EQ(ph, "C");
      EXPECT_EQ(event.find("args")->find("value")->as_u64("value"), 42u);
    } else if (name == "test_obs.rate") {
      saw_double = true;
      EXPECT_EQ(ph, "C");
      EXPECT_DOUBLE_EQ(
          event.find("args")->find("value")->as_number("value"), 2.5);
    } else if (name == "test_obs.tick") {
      saw_instant = true;
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(event.find("s")->as_string("s"), "t");
    } else if (name == "test_obs.phases_span") {
      saw_span = true;
      EXPECT_EQ(ph, "X");
      EXPECT_NE(event.find("dur"), nullptr);
    }
  }
  EXPECT_TRUE(saw_process);
  EXPECT_TRUE(saw_thread);
  EXPECT_TRUE(saw_u64);
  EXPECT_TRUE(saw_double);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_span);
}

TEST(Trace, CounterAndInstantAreNoOpsWithoutTracer) {
  ASSERT_EQ(tracer(), nullptr);
  trace_counter("test_obs.ignored", std::uint64_t{1});
  trace_counter("test_obs.ignored", 1.5);
  trace_instant("test_obs.ignored");  // must not crash, must not record
}

TEST(Trace, WriteIsAtomicAndParseable) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "fsr_test_obs_trace.json";
  fs::remove(path);
  Tracer local;
  install_tracer(&local);
  { Span span("test_obs.write"); }
  install_tracer(nullptr);
  EXPECT_TRUE(local.write(path.string()));

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(api::json::parse(contents).find("traceEvents"), nullptr);
  // The temp+rename idiom must not leave temp litter behind.
  for (const auto& entry : fs::directory_iterator(path.parent_path())) {
    EXPECT_EQ(entry.path().filename().string().find(
                  "fsr_test_obs_trace.json.tmp"),
              std::string::npos);
  }
  fs::remove(path);
  // An unwritable target reports failure instead of throwing.
  EXPECT_FALSE(local.write("/nonexistent-dir-xyz/trace.json"));
}

// ------------------------------------------------------ solver telemetry --

TEST(Trace, SolverRestartsEmitInstantsNestedInTheOwningSpan) {
  Tracer local;
  install_tracer(&local);
  const std::uint32_t span_tid = current_thread_tid();
  {
    Span span("test_obs.sat_query");
    // Pigeonhole PHP(6,5): unsatisfiable and hard enough that the Luby
    // schedule (first restart after 64 conflicts) fires several times.
    groundtruth::SatSolver solver;
    constexpr int k_pigeons = 6, k_holes = 5;
    std::vector<std::vector<groundtruth::Lit>> rows(k_pigeons);
    for (int p = 0; p < k_pigeons; ++p) {
      for (int h = 0; h < k_holes; ++h) {
        rows[static_cast<std::size_t>(p)].push_back(
            groundtruth::make_lit(solver.new_variable(), false));
      }
    }
    for (int p = 0; p < k_pigeons; ++p) {
      solver.add_clause(rows[static_cast<std::size_t>(p)]);
    }
    for (int h = 0; h < k_holes; ++h) {
      for (int p1 = 0; p1 < k_pigeons; ++p1) {
        for (int p2 = p1 + 1; p2 < k_pigeons; ++p2) {
          solver.add_clause(
              {groundtruth::lit_negate(
                   rows[static_cast<std::size_t>(p1)]
                       [static_cast<std::size_t>(h)]),
               groundtruth::lit_negate(
                   rows[static_cast<std::size_t>(p2)]
                       [static_cast<std::size_t>(h)])});
        }
      }
    }
    EXPECT_EQ(solver.solve(), groundtruth::SolveStatus::unsatisfiable);
    EXPECT_GT(solver.restarts(), 0u);  // the premise of this test
  }
  install_tracer(nullptr);

  const api::json::Value parsed = api::json::parse(local.chrome_trace_json());
  const auto& events = parsed.find("traceEvents")->as_array("traceEvents");
  std::uint64_t span_start = 0, span_end = 0;
  bool saw_span = false;
  for (const api::json::Value& event : events) {
    if (event.find("name")->as_string("name") == "test_obs.sat_query") {
      saw_span = true;
      span_start = event.find("ts")->as_u64("ts");
      span_end = span_start + event.find("dur")->as_u64("dur");
    }
  }
  ASSERT_TRUE(saw_span);
  std::size_t restarts = 0;
  bool saw_rate = false, saw_learned = false, saw_props = false;
  for (const api::json::Value& event : events) {
    const std::string name = event.find("name")->as_string("name");
    if (name == "sat.restart") {
      ++restarts;
      EXPECT_EQ(event.find("ph")->as_string("ph"), "i");
      // Nested under the owning query span: same thread, inside [ts, end].
      EXPECT_EQ(event.find("tid")->as_u64("tid"), span_tid);
      const std::uint64_t ts = event.find("ts")->as_u64("ts");
      EXPECT_GE(ts, span_start);
      EXPECT_LE(ts, span_end);
    } else if (name == "sat.conflict_rate") {
      saw_rate = true;
      EXPECT_EQ(event.find("ph")->as_string("ph"), "C");
    } else if (name == "sat.learned_db") {
      saw_learned = true;
      EXPECT_EQ(event.find("ph")->as_string("ph"), "C");
    } else if (name == "sat.propagations") {
      saw_props = true;
    }
  }
  EXPECT_GT(restarts, 0u);
  EXPECT_TRUE(saw_rate);
  EXPECT_TRUE(saw_learned);
  EXPECT_TRUE(saw_props);
}

}  // namespace
}  // namespace fsr::obs
