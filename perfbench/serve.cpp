// serve_mix: an in-process ElectionServer (2 workers, metrics on) driven by
// 4 closed-loop ServeClient sessions, each waiting for its result before it
// submits again.  Jobs are draw_scenario tokens (max_n 24, adversary 0.35,
// churn 0.35, threads 0): the traffic election_loadgen sends.
//
// One rep is every session running jobs_per_rep jobs; a job's latency runs
// from its first submit to its JobResult (a rejected and retried job keeps
// its first submit time).  Every JobResult is replayed locally and diffed
// after its rep, off the clock.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "net/metrics.hpp"
#include "net/rng.hpp"
#include "scenario/fuzzer.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace ule;

namespace {

constexpr std::size_t kSessions = 4;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kChunk = 512;  // ServeConfig::stream_chunk

std::size_t jobs_per_rep(const Options& o) { return o.tiny ? 3 : 25; }

struct Harness {
  // Declared first, destroyed last: ~ElectionServer drains and joins after
  // the sessions below have closed.
  std::unique_ptr<serve::ElectionServer> server;
  std::vector<std::unique_ptr<serve::ServeClient>> clients;

  Harness() {
    serve::ServeConfig cfg;
    cfg.workers = kWorkers;
    cfg.metrics = true;
    cfg.stream_chunk = kChunk;
    server = std::make_unique<serve::ElectionServer>(cfg);
    server->start();
    for (std::size_t i = 0; i < kSessions; ++i) {
      clients.push_back(std::make_unique<serve::ServeClient>());
      clients.back()->connect("127.0.0.1", server->port());
    }
  }
};

struct Job {
  std::string token;
  double latency_ms = 0;  ///< first submit -> JobResult
  double accept_ms = 0;   ///< first submit -> JobAccepted (traced)
  double result_ms = 0;   ///< JobAccepted -> JobResult (traced)
  std::uint64_t rejects = 0;
  std::uint64_t job_id = 0;
  serve::ServeClient::JobReply reply;
};

struct Session {
  std::vector<Job> jobs;
  std::string error;  ///< set when the session died
};

/// The draws of session `i` in rep `rep`: a pure function of the seed, so
/// every rep's inputs are the same on every commit however many reps run.
std::uint64_t session_seed(std::uint64_t seed, std::size_t rep, std::size_t i) {
  std::uint64_t sm = seed ^ (0x9E3779B97F4A7C15ULL * (rep * kSessions + i + 1));
  return splitmix64(sm);
}

void run_session(serve::ServeClient& client, std::uint64_t seed,
                 std::size_t jobs, bool trace, Session& out) {
  Rng rng(seed);
  for (std::size_t j = 0; j < jobs; ++j) {
    const Scenario s =
        draw_scenario(rng, protocols(), families(), /*max_n=*/24,
                      /*threads_fraction=*/0.0, /*adversary_fraction=*/0.35,
                      "", /*churn_fraction=*/0.35);
    Job job;
    job.token = s.encode();
    try {
      const auto t0 = Clock::now();
      serve::ServeClient::Submission sub;
      for (;;) {
        sub = client.submit_token(job.token, j);
        if (sub.accepted) break;
        ++job.rejects;  // backpressure: retry once the queue drains a little
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const auto t1 = trace ? Clock::now() : t0;
      job.reply = client.await_result(sub.job_id);
      const auto t2 = Clock::now();
      job.latency_ms = ms_between(t0, t2);
      if (trace) {
        job.accept_ms = ms_between(t0, t1);
        job.result_ms = ms_between(t1, t2);
      }
      job.job_id = sub.job_id;
    } catch (const std::exception& e) {
      out.error = job.token + ": " + e.what();
      return;  // the session socket is gone
    }
    out.jobs.push_back(std::move(job));
  }
}

/// One rep: every session runs its jobs concurrently.  Returns the wall.
double run_rep(Harness& h, const Options& o, std::size_t rep, bool trace,
               std::vector<Job>& jobs, Result& r) {
  std::vector<Session> sessions(kSessions);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kSessions; ++i)
    threads.emplace_back([&, i] {
      run_session(*h.clients[i], session_seed(o.seed, rep, i),
                  jobs_per_rep(o), trace, sessions[i]);
    });
  for (auto& t : threads) t.join();
  const double ms = ms_since(t0);
  for (Session& s : sessions) {
    r.attempted += jobs_per_rep(o);
    // A dead session is a transport failure: the run cannot go on.
    if (!s.error.empty()) throw std::runtime_error("session died: " + s.error);
    for (Job& j : s.jobs) jobs.push_back(std::move(j));
  }
  std::fprintf(stderr, "rep %zu: %.1f ms\n", rep + 1, ms);
  return ms;
}

struct Phase {
  std::vector<double> rep_ms;
  std::vector<double> latency_ms;  ///< every job of every rep
};

/// Closed-loop reps until their walls add up to `seconds`.  After each rep,
/// off the clock, `on_rep(rep, jobs)` checks (and, traced, measures) that
/// rep's jobs, which are then dropped: memory holds one rep's replies.
template <typename OnRep>
Phase closed_loop(Harness& h, const Options& o, double seconds, bool trace,
                  Result& r, OnRep&& on_rep) {
  Phase p;
  repeat_for(seconds, [&] {
    std::vector<Job> jobs;
    const std::size_t rep = p.rep_ms.size();
    p.rep_ms.push_back(run_rep(h, o, rep, trace, jobs, r));
    for (const Job& j : jobs) p.latency_ms.push_back(j.latency_ms);
    on_rep(rep, jobs);
    return p.rep_ms.back();
  });
  return p;
}

/// The off-the-clock check of one job: replay the token locally with the
/// daemon's config and diff the JobResult counter for counter, and the
/// streamed telemetry byte for byte.  With `traced`, the replay goes through
/// trace_scenario and its decomposition is kept there.
void check_job(const Job& job, Result& r, TracedScenario* traced) {
  if (!job.reply.ok) {
    r.fail(job.token + ": JobError: " + job.reply.error);
    return;
  }
  ScenarioRunConfig rc;
  rc.check_determinism = false;
  rc.metrics.enabled = true;
  ScenarioOutcome local;
  if (traced) {
    *traced = trace_scenario(job.token, rc);
    local = traced->outcome;
    if (!traced->counters_match)
      r.fail(job.token + ": run_election counters differ from run_scenario's");
  } else {
    local = run_scenario(protocols(), families(), Scenario::parse(job.token), rc);
  }
  const std::string diff =
      diff_counters(job.reply.counters, serve::result_counters(local.report));
  if (!diff.empty()) {
    r.fail(job.token + ": daemon vs local replay: " + diff);
  } else if (job.reply.violations != 0 || !local.violations.empty()) {
    r.fail(job.token + ": " + std::to_string(job.reply.violations) +
           " violations (local " + std::to_string(local.violations.size()) +
           ")");
  } else if (!local.report.run.metrics ||
             job.reply.metrics_doc != metrics_json(*local.report.run.metrics)) {
    r.fail(job.token + ": streamed metrics differ from the local snapshot");
  }
}

/// Append the frames the daemon sent for `job` to `out`, re-encoded from
/// what the client handed back: JobAccepted, the telemetry StreamChunks, the
/// JobResult.  Returns the number of frames appended.
std::size_t append_reply_stream(const Job& job, std::string& out) {
  using serve::FrameType;
  out += serve::encode_frame(FrameType::JobAccepted, 0, 0, job.job_id, 0, 0, {});
  const std::string& doc = job.reply.metrics_doc;
  std::size_t frames = 2;
  for (std::size_t pos = 0; pos < doc.size(); pos += kChunk, ++frames) {
    const std::size_t len = std::min(kChunk, doc.size() - pos);
    out += serve::encode_frame(FrameType::StreamChunk, 0,
                               pos + len >= doc.size() ? serve::kLastChunk : 0,
                               job.job_id, 0, frames - 2,
                               std::string_view(doc).substr(pos, len));
  }
  out += serve::encode_frame(FrameType::JobResult, 0, 0, job.job_id, 0,
                             job.reply.violations,
                             serve::encode_result(job.reply.counters));
  return frames;
}

/// FrameDecoder over the captured reply bytes, fed in socket-sized slices.
/// Returns ns per frame; checks every frame comes back.
double decode_ns_per_frame(const std::string& bytes, std::size_t frames,
                           Result& r) {
  constexpr std::size_t kSlice = 4096;
  std::vector<double> ns;
  for (int round = 0; round < 5; ++round) {
    serve::FrameDecoder dec;
    serve::Frame f;
    std::size_t got = 0;
    const auto t0 = Clock::now();
    for (std::size_t pos = 0; pos < bytes.size(); pos += kSlice) {
      dec.feed(bytes.data() + pos, std::min(kSlice, bytes.size() - pos));
      while (dec.next(f, nullptr) == serve::FrameDecoder::Status::Frame) ++got;
    }
    ns.push_back(ms_since(t0) * 1e6 / static_cast<double>(frames));
    if (got != frames || dec.bad() || dec.buffered() != 0) {
      r.fail("decoder returned " + std::to_string(got) + " of " +
             std::to_string(frames) + " frames");
      break;
    }
  }
  return median(ns);
}

void check_metrics_endpoint(const Harness& h, Result& r, double* get_ms) {
  std::string body, err;
  const auto t0 = Clock::now();
  const int status = serve::http_get("127.0.0.1", h.server->http_port(),
                                     "/metrics", &body);
  if (get_ms) *get_ms = ms_since(t0);
  ++r.attempted;
  if (status != 200 || !validate_metrics_json(body, &err))
    r.fail("GET /metrics: status " + std::to_string(status) + " " + err);
}

}  // namespace

void setup_only(const Options& o, const std::function<void()>& ready) {
  protocols();
  families();
  std::optional<Harness> h;
  if (o.workload == "serve_mix") h.emplace();
  ready();
}

Result run_serve_mix(const Options& o) {
  Result r;
  Harness h;
  const auto check_all = [&](std::size_t, const std::vector<Job>& jobs) {
    for (const Job& j : jobs) check_job(j, r, nullptr);
  };

  if (!o.trace) {
    const Phase p = closed_loop(h, o, o.seconds, false, r, check_all);
    check_metrics_endpoint(h, r, nullptr);
    double total_ms = 0;
    for (double ms : p.rep_ms) total_ms += ms;
    r.add("wall_s", median(p.rep_ms) / 1000.0, "s");
    r.add("jobs_per_s",
          static_cast<double>(p.latency_ms.size()) / (total_ms / 1000.0), "1/s");
    r.add("job_p50_ms", percentile(p.latency_ms, 0.50), "ms");
    r.add("job_p99_ms", percentile(p.latency_ms, 0.99), "ms");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  const Phase ref = closed_loop(h, o, o.seconds / 2, false, r, check_all);

  // Per-job stage times, and the local replays taken apart, summed per rep
  // (like the batch workloads); exact counts over rep 0.
  struct RepSums {
    double build = 0, diameter = 0, engine = 0, run = 0, check = 0,
           messages = 0;
  };
  std::vector<RepSums> sums;
  std::vector<double> accept, result, exec, overhead, parse, decode_ns;
  double rejects = 0, jobs = 0, bytes = 0;
  double messages = 0, executed = 0, steps = 0, drops = 0, retx = 0;
  const Phase p = closed_loop(
      h, o, o.seconds / 2, true, r,
      [&](std::size_t rep, const std::vector<Job>& rep_jobs) {
        RepSums s;
        std::string stream;
        std::size_t frames = 0;
        for (const Job& j : rep_jobs) {
          TracedScenario t;
          check_job(j, r, &t);
          accept.push_back(j.accept_ms);
          result.push_back(j.result_ms);
          rejects += static_cast<double>(j.rejects);
          jobs += 1;
          frames += append_reply_stream(j, stream);
          if (!j.reply.ok) continue;
          exec.push_back(t.run_ms);
          overhead.push_back(j.latency_ms - t.run_ms);
          parse.push_back(t.parse_us);
          s.build += t.build_ms;
          s.diameter += t.diameter_ms;
          s.engine += t.engine_ms;
          s.run += t.run_ms;
          s.check += t.check_ms();
          s.messages += static_cast<double>(t.decomposed.run.messages);
          if (rep == 0) {
            const RunResult& run = t.decomposed.run;
            messages += static_cast<double>(run.messages);
            executed += static_cast<double>(run.executed_rounds);
            steps += static_cast<double>(run.node_steps);
            drops += static_cast<double>(run.adv_drops);
            if (t.outcome.report.run.metrics)
              retx += static_cast<double>(snapshot_counter(
                  *t.outcome.report.run.metrics, "arq.retransmissions"));
          }
        }
        bytes += static_cast<double>(stream.size());
        decode_ns.push_back(decode_ns_per_frame(stream, frames, r));
        sums.push_back(s);
      });
  std::vector<double> gets;
  for (int i = 0; i < 5; ++i) {
    double ms = 0;
    check_metrics_endpoint(h, r, &ms);
    gets.push_back(ms);
  }

  r.add("serve.accept_ms_p50", percentile(accept, 0.50), "ms");
  r.add("serve.accept_ms_p99", percentile(accept, 0.99), "ms");
  r.add("serve.result_ms_p50", percentile(result, 0.50), "ms");
  r.add("serve.result_ms_p99", percentile(result, 0.99), "ms");
  r.add("serve.exec_ms_p50", percentile(exec, 0.50), "ms");
  r.add("serve.overhead_ms_p50", percentile(overhead, 0.50), "ms");
  r.add("serve.reject_ratio", rejects / (rejects + jobs), "ratio");
  r.add("serve.stream_bytes_per_job", bytes / jobs, "bytes");
  r.add("serve.decode_ns_per_frame", median(decode_ns), "ns");
  r.add("serve.metrics_get_ms", median(gets), "ms");

  const auto med = [&](double RepSums::*f) {
    std::vector<double> v;
    for (const RepSums& s : sums) v.push_back(s.*f);
    return median(v);
  };
  r.add("graphgen.build_ms", med(&RepSums::build), "ms");
  r.add("graphgen.diameter_ms", med(&RepSums::diameter), "ms");
  r.add("graphgen.diameter_share", med(&RepSums::diameter) / med(&RepSums::run),
        "ratio");
  r.add("net.engine_ms", med(&RepSums::engine), "ms");
  r.add("net.ns_per_message", med(&RepSums::engine) * 1e6 / med(&RepSums::messages),
        "ns");
  r.add("scenario.run_ms", med(&RepSums::run), "ms");
  r.add("scenario.check_ms", med(&RepSums::check), "ms");
  r.add("scenario.parse_us", median(parse), "us");
  r.add("net.messages", messages, "count");
  r.add("net.executed_rounds", executed, "count");
  r.add("net.node_steps", steps, "count");
  r.add("net.adv_drops", drops, "count");
  r.add("net.arq_retransmissions", retx, "count");

  const double untraced_p50 = percentile(ref.latency_ms, 0.50);
  r.add("trace.overhead_pct",
        (percentile(p.latency_ms, 0.50) - untraced_p50) / untraced_p50 * 100.0,
        "%");
  r.add("fail_ratio", r.fail_ratio(), "ratio");
  return r;
}

}  // namespace perfbench
