// layer_replay: replays a loadbench request stream in process, through the
// same public functions fsr_serve's socket path calls, and times each call
// from outside: netserve::LineFramer::feed, api::json::parse,
// api::wire::parse_request, api::fingerprint, AnalysisService::submit
// (queue wait and execution) and api::wire::render_response.
//
//   layer_replay --dir DIR --shards N [--seconds S] [--trace-out FILE]
//
// DIR holds unique.jsonl and stream.txt as written by run.py. The stream
// is replayed in order, with at most N requests in the service at once,
// until it ends or S seconds pass. Every call gets a span; all spans of
// one request share its request id, are kept in memory and written as
// Chrome trace_event JSON at exit (--trace-out). The per-layer means and
// every request's queue wait go to stdout as one JSON object.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "api/json.h"
#include "api/request.h"
#include "api/service.h"
#include "api/wire.h"
#include "netserve/framing.h"

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_epoch).count();
}

struct Span {
  const char* name;
  std::uint64_t request;
  double start_us;
  double dur_us;
  int lane;  // 1 = the front-end thread, 2 = the service (worker side)
};

// Spans kept for the trace file; metrics still cover every request.
constexpr std::size_t kMaxSpans = 60000;

struct Completion {
  std::uint64_t request = 0;
  double submitted_us = 0;
  double done_us = 0;
  fsr::api::Response response;
};

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string trace_out;
  int shards = 1;
  double seconds = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--dir") dir = argv[i + 1];
    else if (arg == "--shards") shards = std::atoi(argv[i + 1]);
    else if (arg == "--seconds") seconds = std::atof(argv[i + 1]);
    else if (arg == "--trace-out") trace_out = argv[i + 1];
    else {
      std::fprintf(stderr, "layer_replay: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (dir.empty() || shards < 1) {
    std::fprintf(stderr, "layer_replay: --dir and --shards >= 1 are required\n");
    return 2;
  }

  std::vector<std::string> unique;
  {
    std::ifstream in(dir + "/unique.jsonl");
    std::string line;
    while (std::getline(in, line)) unique.push_back(line);
  }
  std::vector<std::uint32_t> stream;
  {
    std::ifstream in(dir + "/stream.txt");
    std::uint32_t index = 0;
    while (in >> index) stream.push_back(index);
  }
  if (unique.empty() || stream.empty()) {
    std::fprintf(stderr, "layer_replay: no input in %s\n", dir.c_str());
    return 1;
  }

  fsr::api::ServiceOptions options;
  options.threads = shards;
  fsr::netserve::LineFramer framer;

  std::vector<Span> spans;
  const auto add_span = [&](Span span) {
    if (spans.size() < kMaxSpans) spans.push_back(span);
  };
  std::mutex mutex;
  std::condition_variable done_cv;
  std::deque<Completion> done;  // guarded by mutex
  std::size_t outstanding = 0;
  // Declared after what its completion callbacks touch, so its destructor
  // joins the workers before those go away.
  fsr::api::AnalysisService service(options);

  double frame_us = 0, json_us = 0, parse_us = 0, fingerprint_us = 0, render_us = 0;
  std::uint64_t lines = 0, submitted = 0, rendered = 0, invalid = 0;
  std::vector<double> queue_wait_ms;
  double execute_ms = 0;

  // Renders every completion that has arrived; with `wait`, blocks until
  // at least one has.
  const auto drain = [&](bool wait) {
    std::deque<Completion> ready;
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (wait) done_cv.wait(lock, [&] { return !done.empty(); });
      ready.swap(done);
      outstanding -= ready.size();
    }
    for (Completion& completion : ready) {
      const double wall_us = completion.response.wall_ms * 1e3;
      const double wait_us =
          std::max(0.0, completion.done_us - completion.submitted_us - wall_us);
      queue_wait_ms.push_back(wait_us / 1e3);
      execute_ms += completion.response.wall_ms;
      add_span({"service.queue_wait", completion.request, completion.submitted_us,
                wait_us, 2});
      add_span({"service.execute", completion.request, completion.done_us - wall_us,
                wall_us, 2});
      const double start = now_us();
      const std::string text = fsr::api::wire::render_response(completion.response);
      const double end = now_us();
      render_us += end - start;
      ++rendered;
      add_span({"api.render", completion.request, start, end - start, 1});
      if (text.empty()) std::abort();
    }
  };

  const double budget_us = seconds * 1e6;
  for (std::size_t k = 0; k < stream.size() && now_us() < budget_us; ++k) {
    const std::uint64_t request_id = k;
    const std::string bytes = unique[stream[k]] + "\n";

    double start = now_us();
    const std::vector<fsr::netserve::Frame> frames = framer.feed(bytes);
    double end = now_us();
    frame_us += end - start;
    add_span({"netserve.frame", request_id, start, end - start, 1});
    if (frames.size() != 1) {
      std::fprintf(stderr, "layer_replay: framer split line %zu\n", k);
      return 1;
    }
    ++lines;
    const std::string& line = frames[0].line;

    start = now_us();
    try {
      fsr::api::json::parse(line);
    } catch (const std::exception&) {
    }
    end = now_us();
    json_us += end - start;
    add_span({"api.json_parse", request_id, start, end - start, 1});

    fsr::api::Request request;
    bool valid = true;
    start = now_us();
    try {
      request = fsr::api::wire::parse_request(line);
    } catch (const std::exception&) {
      valid = false;
    }
    end = now_us();
    parse_us += end - start;
    add_span({"api.parse_request", request_id, start, end - start, 1});
    if (!valid) {
      ++invalid;
      continue;
    }

    start = now_us();
    const std::string print = fsr::api::fingerprint(request);
    end = now_us();
    fingerprint_us += end - start;
    add_span({"api.fingerprint", request_id, start, end - start, 1});
    if (print.empty()) std::abort();

    while (true) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (outstanding < static_cast<std::size_t>(shards)) break;
      }
      drain(true);
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++outstanding;
    }
    const double submitted_us = now_us();
    service.submit(std::move(request), [&, request_id, submitted_us](fsr::api::Response response) {
      Completion completion{request_id, submitted_us, now_us(), std::move(response)};
      std::lock_guard<std::mutex> lock(mutex);
      done.push_back(std::move(completion));
      done_cv.notify_one();
    });
    ++submitted;
    drain(false);
  }
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (outstanding == 0) break;
    }
    drain(true);
  }
  drain(false);
  const double wall_s = now_us() / 1e6;

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      char buffer[256];
      std::snprintf(buffer, sizeof buffer,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu}}%s\n",
                    span.name, span.lane, span.start_us, span.dur_us,
                    static_cast<unsigned long long>(span.request),
                    i + 1 < spans.size() ? "," : "");
      out << buffer;
    }
    out << "], \"displayTimeUnit\": \"ms\"}\n";
  }

  const auto mean = [](double total, std::uint64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  std::printf(
      "{\"lines\": %llu, \"submitted\": %llu, \"invalid\": %llu, \"wall_s\": %.6f, "
      "\"frame_us\": %.6f, \"json_parse_us\": %.6f, \"parse_request_us\": %.6f, "
      "\"fingerprint_us\": %.6f, \"render_us\": %.6f, \"execute_ms\": %.6f, "
      "\"queue_wait_ms\": [",
      static_cast<unsigned long long>(lines), static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(invalid), wall_s, mean(frame_us, lines),
      mean(json_us, lines), mean(parse_us, lines), mean(fingerprint_us, submitted),
      mean(render_us, rendered), mean(execute_ms, rendered));
  for (std::size_t i = 0; i < queue_wait_ms.size(); ++i) {
    std::printf("%s%.6f", i ? ", " : "", queue_wait_ms[i]);
  }
  std::printf("]}\n");
  return 0;
}
