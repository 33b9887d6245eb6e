#include "distributed/link_estimator.hpp"

#include <algorithm>

namespace mrlc::dist {

LinkEstimatorBank::LinkEstimatorBank(const wsn::Network& net,
                                     EstimatorOptions options)
    : options_(options) {
  options_.validate();
  links_.resize(static_cast<std::size_t>(net.link_count()));
  for (wsn::EdgeId id = 0; id < net.link_count(); ++id) {
    State& s = links_[static_cast<std::size_t>(id)];
    // The raw EWMA tracks observed transaction successes (~ q * q_ack when
    // samples are ACK outcomes); seed it at what the survey PRR would look
    // like through that lens so the first samples do not register as a
    // quality change.
    s.estimate = net.link_prr(id) * options_.sample_compensation;
    s.reported = s.estimate;
  }
}

double LinkEstimatorBank::compensated(double raw) const {
  return std::clamp(raw / options_.sample_compensation, options_.min_prr,
                    options_.max_prr);
}

std::optional<LinkEvent> LinkEstimatorBank::observe_detached(wsn::EdgeId link,
                                                             bool success) {
  MRLC_REQUIRE(link >= 0 && link < static_cast<int>(links_.size()),
               "link out of range");
  State& s = links_[static_cast<std::size_t>(link)];
  s.estimate = std::clamp((1.0 - options_.ewma_alpha) * s.estimate +
                              options_.ewma_alpha * (success ? 1.0 : 0.0),
                          options_.min_prr, 1.0);
  ++s.samples;
  if (s.samples < options_.min_samples) return std::nullopt;

  // The compensation factor cancels in the relative comparison, so the
  // hysteresis operates on the raw estimates directly.
  const double drop = (s.reported - s.estimate) / s.reported;
  const double rise = (s.estimate - s.reported) / s.reported;
  LinkEvent event;
  if (drop >= options_.degrade_threshold) {
    event.kind = LinkEvent::Kind::kDegraded;
  } else if (rise >= options_.improve_threshold) {
    event.kind = LinkEvent::Kind::kImproved;
  } else {
    return std::nullopt;
  }
  event.link = link;
  event.old_prr = compensated(s.reported);
  event.new_prr = compensated(s.estimate);
  s.reported = s.estimate;
  return event;
}

void LinkEstimatorBank::observe(wsn::EdgeId link, bool success) {
  MRLC_REQUIRE(link >= 0 && link < static_cast<int>(links_.size()),
               "link out of range");
  State& s = links_[static_cast<std::size_t>(link)];
  const int queued_index = s.pending;
  std::optional<LinkEvent> fired = observe_detached(link, success);
  if (!fired) return;
  if (queued_index >= 0) {
    // A newer observation supersedes the queued event for this link.  The
    // consumer never saw the intermediate anchors, so the merged event keeps
    // the old_prr of the value it last heard.
    LinkEvent& queued = pending_[static_cast<std::size_t>(queued_index)];
    fired->old_prr = queued.old_prr;
    queued = *fired;
  } else {
    s.pending = static_cast<int>(pending_.size());
    pending_.push_back(*fired);
  }
}

std::vector<LinkEvent> LinkEstimatorBank::poll() {
  std::vector<LinkEvent> events = std::move(pending_);
  pending_.clear();
  for (const LinkEvent& event : events) {
    links_[static_cast<std::size_t>(event.link)].pending = -1;
  }
  return events;
}

double LinkEstimatorBank::estimate(wsn::EdgeId link) const {
  MRLC_REQUIRE(link >= 0 && link < static_cast<int>(links_.size()),
               "link out of range");
  return compensated(links_[static_cast<std::size_t>(link)].estimate);
}

long long LinkEstimatorBank::sample_count(wsn::EdgeId link) const {
  MRLC_REQUIRE(link >= 0 && link < static_cast<int>(links_.size()),
               "link out of range");
  return links_[static_cast<std::size_t>(link)].samples;
}

double LinkEstimatorBank::reported(wsn::EdgeId link) const {
  MRLC_REQUIRE(link >= 0 && link < static_cast<int>(links_.size()),
               "link out of range");
  return compensated(links_[static_cast<std::size_t>(link)].reported);
}

void LinkEstimatorBank::write_estimates(wsn::Network& view) const {
  MRLC_REQUIRE(view.link_count() == static_cast<int>(links_.size()),
               "view does not match the anchored network");
  for (wsn::EdgeId id = 0; id < view.link_count(); ++id) {
    view.set_link_prr(id, compensated(links_[static_cast<std::size_t>(id)].estimate));
  }
}

}  // namespace mrlc::dist
