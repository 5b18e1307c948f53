// lab_campaign: the default full Complexity Lab campaign, followed by
// bench_json and compare_lab_trend against the committed baseline.  One rep
// is that whole sequence, and a job is one rep.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "lab/campaign.hpp"
#include "lab/fit.hpp"
#include "lab/report.hpp"
#include "lab/trend.hpp"

namespace perfbench {

using namespace ule;

namespace {

// The timed campaign runs on one worker: at 2 workers its wall spread over
// ten runs reached 21% on a shared 4-core host (1 worker: ~6%).  Job-level
// parallelism is measured in the traced run, on kParallelWorkers.
constexpr unsigned kParallelWorkers = 2;

lab::CampaignConfig campaign_config(const Options& o, unsigned workers) {
  lab::CampaignConfig cfg;
  cfg.threads = workers;
  // The tiny self-test runs the quick ladders at the CLI's quick replicate
  // count, which is what BENCH_lab_quick.json was recorded with.
  if (o.tiny) {
    cfg.quick = true;
    cfg.replicates = 3;
  }
  return cfg;
}

/// The committed baseline of the campaign, relative to the repository root.
const char* baseline_path(const Options& o) {
  return o.tiny ? "BENCH_lab_quick.json" : "BENCH_lab.json";
}

struct Rep {
  lab::CampaignResult res;
  double campaign_ms = 0, report_ms = 0, trend_ms = 0;
  double total_ms() const { return campaign_ms + report_ms + trend_ms; }
};

Rep run_rep(const lab::CampaignConfig& cfg, const std::string& baseline,
            Result& r) {
  Rep rep;
  auto t0 = Clock::now();
  rep.res = lab::run_campaign(protocols(), families(), cfg);
  rep.campaign_ms = ms_since(t0);
  t0 = Clock::now();
  const std::string doc = lab::bench_json(rep.res);
  rep.report_ms = ms_since(t0);
  t0 = Clock::now();
  const lab::TrendReport trend = lab::compare_lab_trend(baseline, doc);
  rep.trend_ms = ms_since(t0);

  // Checks, off the clock.
  r.attempted += rep.res.total_runs;
  if (!rep.res.ok())
    r.fail("campaign: " + std::to_string(rep.res.failed_fits()) +
           " failed fits, " + std::to_string(rep.res.violation_count()) +
           " violations");
  if (!trend.ok())
    r.fail("trend vs baseline: " + std::to_string(trend.errors.size()) +
           " drifts, first: " + trend.errors.front());
  return rep;
}

/// Refit every non-skipped curve fit from the campaign's own cells (the
/// same x/y the campaign fits) and check the exponents agree.
double refit_ms(const lab::CampaignResult& res, Result& r) {
  const auto t0 = Clock::now();
  for (const lab::CurveResult& c : res.curves) {
    for (const lab::FitOutcome& f : c.fits) {
      if (f.skipped) continue;
      std::vector<double> x, y;
      for (const lab::CellResult& cell : c.cells) {
        const lab::MetricStats& ms = f.expect.metric == "rounds" ? cell.rounds
                                     : f.expect.metric == "bits" ? cell.bits
                                                                 : cell.messages;
        if (c.axis == "diameter")
          x.push_back(std::max<std::uint32_t>(cell.diameter, 1));
        else if (c.axis == "loss")
          x.push_back(1000.0 / static_cast<double>(1000 - cell.drop_pm));
        else
          x.push_back(static_cast<double>(std::max<std::uint64_t>(cell.n, 1)));
        y.push_back(static_cast<double>(std::max<std::uint64_t>(ms.median, 1)));
      }
      const lab::PowerFit fit = lab::fit_power_law(x, y);
      if (fit.exponent != f.fit.exponent)
        r.fail("refit " + c.protocol + " x " + c.family + " " +
               f.expect.metric + ": exponent differs from the campaign's");
    }
  }
  return ms_since(t0);
}

}  // namespace

Result run_lab_campaign(const Options& o) {
  Result r;
  const lab::CampaignConfig cfg = campaign_config(o, 1);
  std::string baseline;
  try {
    baseline = lab::read_text_file(baseline_path(o));
  } catch (const std::exception& e) {
    r.fail(std::string("baseline: ") + e.what());
    return r;
  }

  const auto phase = [&](double seconds) {
    std::vector<Rep> reps;
    repeat_for(seconds, [&] {
      reps.push_back(run_rep(cfg, baseline, r));
      std::fprintf(stderr, "rep %zu: %.1f ms\n", reps.size(), reps.back().total_ms());
      return reps.back().total_ms();
    });
    return reps;
  };

  if (!o.trace) {
    std::vector<double> rep_ms;
    for (const Rep& rep : phase(o.seconds)) rep_ms.push_back(rep.total_ms());
    add_rep_metrics(rep_ms, r);
    return r;
  }

  const std::vector<Rep> ref = phase(o.seconds / 2);
  const std::vector<Rep> reps = phase(o.seconds / 2);
  std::vector<double> fit, report, trend, traced, untraced;
  for (const Rep& rep : reps) {
    fit.push_back(refit_ms(rep.res, r));
    report.push_back(rep.report_ms);
    trend.push_back(rep.trend_ms);
    traced.push_back(rep.total_ms());
  }
  for (const Rep& rep : ref) untraced.push_back(rep.total_ms());

  // One campaign on kParallelWorkers: busy time the cells account for, over
  // the time the workers had (an estimate: cells report medians).
  const Rep par = run_rep(campaign_config(o, kParallelWorkers), baseline, r);
  double busy_ms = 0;
  for (const lab::CurveResult& c : par.res.curves)
    for (const lab::CellResult& cell : c.cells)
      busy_ms += cell.wall.median_ms * static_cast<double>(cell.replicates);

  r.add("lab.runs", static_cast<double>(reps.front().res.total_runs), "count");
  r.add("lab.fit_ms", median(fit), "ms");
  r.add("lab.report_ms", median(report), "ms");
  r.add("lab.trend_ms", median(trend), "ms");
  r.add("lab.parallel_efficiency", busy_ms / (kParallelWorkers * par.campaign_ms),
        "ratio");
  r.add("trace.overhead_pct",
        (median(traced) - median(untraced)) / median(untraced) * 100.0, "%");
  r.add("fail_ratio", r.fail_ratio(), "ratio");
  return r;
}

}  // namespace perfbench
