#include "load/fleet.h"

#include "browser/waterfall.h"
#include "net/link_profile.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::load {

Fleet::Fleet(sim::Simulator& sim, const web::Workload& workload, std::size_t site_count,
             ServerFarm& farm, FleetConfig config, util::Rng rng)
    : sim_(sim), workload_(workload),
      site_count_(std::min(site_count, workload.sites.size())), farm_(farm),
      config_(std::move(config)), rng_(rng), mix_rng_(rng_.fork("link_mix")) {
  H3CDN_EXPECTS(site_count_ > 0);
  config_.browser.h3_enabled = config_.h3;
  if (config_.link_mix.empty()) {
    profile_vantages_.push_back(config_.vantage);
    profile_weights_.push_back(1.0);
  } else {
    for (const LinkMixEntry& entry : config_.link_mix) {
      const auto profile = net::LinkProfile::from_name(entry.profile);
      H3CDN_EXPECTS(profile.has_value());
      H3CDN_EXPECTS(entry.weight > 0.0);
      browser::VantageConfig vantage = config_.vantage;
      browser::apply_link_profile(vantage, *profile);
      profile_vantages_.push_back(std::move(vantage));
      profile_weights_.push_back(entry.weight);
    }
  }
  for (const double w : profile_weights_) total_weight_ += w;
  free_clients_.resize(profile_vantages_.size());
}

Fleet::~Fleet() = default;

std::uint32_t Fleet::profile_of(std::size_t member) const {
  if (profile_vantages_.size() == 1) return 0;
  // Keyed by the member's population index, so a member keeps its link class
  // whether the run is full or sampled.
  double u = mix_rng_.fork(static_cast<std::uint64_t>(member)).uniform() * total_weight_;
  for (std::size_t i = 0; i + 1 < profile_weights_.size(); ++i) {
    u -= profile_weights_[i];
    if (u < 0.0) return static_cast<std::uint32_t>(i);
  }
  return static_cast<std::uint32_t>(profile_weights_.size() - 1);
}

std::uint32_t Fleet::stratum_of(std::size_t member, TimePoint at) const {
  const std::uint32_t profile = profile_of(member);
  std::uint32_t phases = 1;
  std::uint32_t phase = 0;
  if (config_.arrival.kind != ArrivalKind::ClosedLoop &&
      config_.sampling.arrival_phases > 1 && config_.arrival.window.count() > 0) {
    phases = static_cast<std::uint32_t>(config_.sampling.arrival_phases);
    const auto raw = static_cast<std::uint64_t>(at.count()) * phases /
                     static_cast<std::uint64_t>(config_.arrival.window.count());
    phase = static_cast<std::uint32_t>(std::min<std::uint64_t>(raw, phases - 1));
  }
  return profile * phases + phase;
}

std::size_t Fleet::checkout_client(std::uint32_t profile) {
  std::vector<std::uint32_t>& free_list = free_clients_[profile];
  if (!free_list.empty()) {
    const std::size_t index = free_list.back();
    free_list.pop_back();
    return index;
  }
  const std::size_t index = clients_.size();
  util::Rng client_rng = rng_.fork("client").fork(static_cast<std::uint64_t>(index));
  clients_.env.push_back(std::make_unique<browser::Environment>(
      sim_, workload_.universe, profile_vantages_[profile], client_rng.fork("env"),
      &farm_));
  if (config_.chain != nullptr) clients_.env.back()->set_topology(config_.chain);
  clients_.tickets.push_back(std::make_unique<tls::SessionTicketStore>());
  clients_.browser.push_back(std::make_unique<browser::Browser>(
      sim_, *clients_.env.back(), clients_.tickets.back().get(), config_.browser,
      client_rng.fork("browser")));
  clients_.think_rng.push_back(client_rng.fork("think"));
  clients_.profile.push_back(profile);
  clients_.busy.push_back(0);
  clients_.visits.push_back(0);
  return index;
}

void Fleet::release_client(std::size_t index) {
  clients_.busy[index] = 0;
  ++clients_.visits[index];
  free_clients_[clients_.profile[index]].push_back(static_cast<std::uint32_t>(index));
}

FleetOutcome Fleet::run() {
  // The paper's warm-up visit, fleet-style: prime every edge cache once so
  // measured visits hit warm edges (modulo natural churn) like single-probe
  // runs do. Canonical page/resource order keeps the farm rng deterministic.
  for (std::size_t i = 0; i < site_count_; ++i) {
    for (const auto& r : workload_.sites[i].page.resources) {
      if (!r.is_cdn) continue;
      if (cdn::EdgeServer* edge = farm_.edge(r.domain)) edge->warm(r.domain + r.path);
    }
  }

  if (config_.arrival.kind == ArrivalKind::ClosedLoop) {
    const std::size_t users = config_.arrival.users;
    outcome_.population = users;
    SamplePlan plan;
    if (config_.sampling.target > 0) {
      std::vector<std::uint32_t> strata(users);
      for (std::size_t u = 0; u < users; ++u) strata[u] = stratum_of(u, TimePoint{0});
      util::Rng coreset_rng = rng_.fork("coreset");
      plan = plan_stratified_sample(strata, config_.sampling.target, coreset_rng);
    }
    auto launch_user = [this](std::size_t user, double weight) {
      const std::size_t ci = checkout_client(profile_of(user));
      const double think_ms = to_ms(config_.arrival.think_mean);
      const TimePoint first{from_ms(clients_.think_rng[ci].exponential(think_ms))};
      if (first < TimePoint{config_.arrival.window}) {
        sim_.schedule_at(first,
                         [this, ci, user, weight] { user_visit(ci, user, weight); });
      } else {
        --future_;
      }
    };
    if (plan.active) {
      future_ = plan.chosen.size();
      for (std::size_t k = 0; k < plan.chosen.size(); ++k) {
        launch_user(plan.chosen[k], plan.weights[k]);
      }
    } else {
      future_ = users;
      for (std::size_t u = 0; u < users; ++u) launch_user(u, 1.0);
    }
    outcome_.plan = std::move(plan);
  } else {
    util::Rng arrival_rng = rng_.fork("arrivals");
    auto arrivals = open_loop_arrivals(config_.arrival, arrival_rng);
    if (arrivals.size() > config_.max_visits) {
      outcome_.arrivals_capped = arrivals.size() - config_.max_visits;
      obs::count("load.arrivals_capped", sim_.now(), outcome_.arrivals_capped);
      arrivals.resize(config_.max_visits);
    }
    outcome_.population = arrivals.size();
    SamplePlan plan;
    if (config_.sampling.target > 0) {
      std::vector<std::uint32_t> strata(arrivals.size());
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        strata[i] = stratum_of(i, arrivals[i]);
      }
      util::Rng coreset_rng = rng_.fork("coreset");
      plan = plan_stratified_sample(strata, config_.sampling.target, coreset_rng);
    }
    if (plan.active) {
      future_ = plan.chosen.size();
      for (std::size_t k = 0; k < plan.chosen.size(); ++k) {
        const std::size_t member = plan.chosen[k];
        const double weight = plan.weights[k];
        sim_.schedule_at(arrivals[member],
                         [this, member, weight] { start_visit(member, weight); });
      }
    } else {
      // Page rotation, link class, and stratum are all keyed by the member
      // index (== temporal arrival order), so this path is byte-identical to
      // the pre-sampling fleet.
      future_ = arrivals.size();
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        sim_.schedule_at(arrivals[i], [this, i] { start_visit(i, 1.0); });
      }
    }
    outcome_.plan = std::move(plan);
  }

  sample_tick();
  sim_.run();
  outcome_.clients_used = clients_.size();
  return std::move(outcome_);
}

void Fleet::start_visit(std::size_t member, double weight) {
  --future_;
  ++active_;
  ++outcome_.arrivals;
  obs::count("load.arrivals", sim_.now());
  const web::WebPage& page = workload_.sites[member % site_count_].page;
  const std::uint32_t stratum = stratum_of(member, sim_.now());
  const std::size_t ci = checkout_client(profile_of(member));
  clients_.busy[ci] = 1;
  const TimePoint arrived = sim_.now();
  clients_.browser[ci]->visit(
      page, [this, ci, root_id = page.html.id, arrived, weight,
             stratum](browser::PageLoadResult result) {
        finish_visit(ci, root_id, arrived, weight, stratum, result);
        release_client(ci);
      });
}

void Fleet::user_visit(std::size_t client_index, std::size_t user, double weight) {
  ++active_;
  ++outcome_.arrivals;
  obs::count("load.arrivals", sim_.now());
  const web::WebPage& page = workload_.sites[visit_counter_++ % site_count_].page;
  const TimePoint arrived = sim_.now();
  const std::uint32_t stratum = stratum_of(user, TimePoint{0});
  clients_.busy[client_index] = 1;
  clients_.browser[client_index]->visit(
      page, [this, client_index, user, weight, root_id = page.html.id, arrived,
             stratum](browser::PageLoadResult result) {
        finish_visit(client_index, root_id, arrived, weight, stratum, result);
        clients_.busy[client_index] = 0;
        ++clients_.visits[client_index];
        const double think_ms = clients_.think_rng[client_index].exponential(
            to_ms(config_.arrival.think_mean));
        const TimePoint next = sim_.now() + from_ms(think_ms);
        if (next < TimePoint{config_.arrival.window} &&
            outcome_.arrivals < config_.max_visits) {
          sim_.schedule_at(next, [this, client_index, user, weight] {
            user_visit(client_index, user, weight);
          });
        } else {
          --future_;  // user retires: window over (or runaway cap)
        }
      });
}

void Fleet::finish_visit(std::size_t client_index, std::uint32_t root_id,
                         TimePoint arrived, double weight, std::uint32_t stratum,
                         const browser::PageLoadResult& result) {
  (void)client_index;
  --active_;
  VisitRecord rec;
  rec.arrived = arrived;
  rec.plt = result.har.page_load_time;
  rec.weight = weight;
  rec.stratum = stratum;
  const browser::HarEntry* root = nullptr;
  for (const auto& e : result.har.entries) {
    if (e.resource_id == root_id) {
      root = &e;
      break;
    }
  }
  if (root == nullptr || root->timings.failed) {
    rec.root_failed = true;
  } else {
    rec.ttfb = root->timings.blocked + root->timings.dns + root->timings.connect +
               root->timings.send + root->timings.wait;
  }
  rec.connections_created = result.pool_stats.connections_created;
  rec.connections_refused = result.pool_stats.connections_refused;
  rec.refusal_retries = result.pool_stats.refusal_retries;
  rec.requests_failed = result.pool_stats.requests_failed;

  // Weight-scaled phase accumulation: dividing phase_sum by weight_sum yields
  // the extrapolated per-visit mean (exactly the plain mean in full runs).
  const obs::CriticalPathResult cp =
      obs::analyze_critical_path(browser::make_waterfall(result.har));
  rec.fcp_ms = cp.qoe.fcp_ms;
  obs::PhaseVector phases = cp.phases;
  for (double& v : phases.ms) v *= weight;
  outcome_.phase_sum += phases;
  outcome_.weight_sum += weight;

  const TimePoint finished = sim_.now();
  obs::count("load.visits", finished);
  if (rec.root_failed) {
    obs::count("load.visits_failed", finished);
  } else {
    // PLT and TTFB land in the visit's ARRIVAL window: the latency of a page
    // is a property of when its load started, which is what lines a PLT
    // spike up against the fault window that caused it.
    obs::observe("load.plt_ms", arrived, to_ms(rec.plt));
    obs::observe("load.ttfb_ms", arrived, to_ms(rec.ttfb));
    obs::observe("load.qoe_fcp_ms", rec.fcp_ms);
  }
  outcome_.visits.push_back(rec);
}

void Fleet::sample_tick() {
  const TimePoint now = sim_.now();
  const ServerFarm::Sample s = farm_.sample(now);
  outcome_.queue_series.push_back(
      {now, s.accept_backlog, s.concurrent_connections, s.busy_cores});
  obs::sample("load.queue_depth", now, static_cast<double>(s.accept_backlog));
  obs::sample("load.concurrent_connections", now, static_cast<double>(s.concurrent_connections));
  obs::sample("load.busy_cores", now, static_cast<double>(s.busy_cores));
  if (active_ + future_ > 0) {
    sim_.schedule_in(config_.queue_sample_interval, [this] { sample_tick(); });
  }
}

}  // namespace h3cdn::load
