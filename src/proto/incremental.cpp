#include "proto/incremental.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace repro::proto {

int IncrementalFsm::find_cluster(const State& state,
                                 const Bytes& message) const {
  int best = -1;
  double best_similarity = 0.0;
  for (std::size_t t = 0; t < state.transitions.size(); ++t) {
    const Transition& transition = state.transitions[t];
    if (transition.exemplars.empty()) continue;
    const double similarity =
        message_similarity(transition.exemplars.front(), message);
    if (similarity >= options_.fsm.similarity_threshold &&
        similarity > best_similarity) {
      best = static_cast<int>(t);
      best_similarity = similarity;
    }
  }
  return best;
}

void IncrementalFsm::train(const Conversation& conversation) {
  if (conversation.dst_port != port_) {
    throw ConfigError("IncrementalFsm::train: port mismatch");
  }
  // Pair each client message with the server reply that follows it (the
  // honeyfarm's answer, which sensors will replay once mature).
  std::vector<const Bytes*> replies;
  {
    const Bytes* pending_reply = nullptr;
    for (auto it = conversation.messages.rbegin();
         it != conversation.messages.rend(); ++it) {
      if (it->direction == Message::Direction::kServerToClient) {
        pending_reply = &it->bytes;
      } else {
        replies.push_back(pending_reply);
        pending_reply = nullptr;
      }
    }
    std::reverse(replies.begin(), replies.end());
  }
  std::size_t depth = 0;
  int state_index = 0;
  for (const Bytes* message : conversation.client_messages()) {
    State& state = states_[static_cast<std::size_t>(state_index)];
    int cluster = find_cluster(state, *message);
    if (cluster < 0) {
      Transition transition;
      transition.target = static_cast<int>(states_.size());
      states_.emplace_back();
      // NOTE: states_ growth may reallocate; re-take the reference.
      State& reloaded = states_[static_cast<std::size_t>(state_index)];
      reloaded.transitions.push_back(std::move(transition));
      cluster = static_cast<int>(reloaded.transitions.size()) - 1;
    }
    Transition& transition = states_[static_cast<std::size_t>(state_index)]
                                 .transitions[static_cast<std::size_t>(cluster)];
    ++transition.sample_count;
    if (depth < replies.size() && replies[depth] != nullptr) {
      ++transition.replies[*replies[depth]];
    }
    ++depth;
    if (transition.exemplars.size() < options_.max_exemplars) {
      transition.exemplars.push_back(*message);
      // Re-derive the fixed regions from the exemplar set.
      std::vector<const Bytes*> views;
      views.reserve(transition.exemplars.size());
      for (const Bytes& exemplar : transition.exemplars) {
        views.push_back(&exemplar);
      }
      transition.regions =
          region_analysis(views, options_.fsm.min_region_length);
    }
    state_index = transition.target;
  }
}

template <typename Visit>
bool IncrementalFsm::walk(const Conversation& conversation,
                          Visit&& visit) const {
  if (conversation.dst_port != port_) return false;
  int state_index = 0;
  for (const Bytes* message : conversation.client_messages()) {
    const State& state = states_[static_cast<std::size_t>(state_index)];
    int best = -1;
    std::size_t best_bytes = 0;
    for (std::size_t t = 0; t < state.transitions.size(); ++t) {
      const Transition& transition = state.transitions[t];
      if (transition.sample_count < options_.maturity) continue;
      if (!regions_match(transition.regions, *message)) continue;
      const std::size_t fixed_bytes = total_region_bytes(transition.regions);
      if (best < 0 || fixed_bytes > best_bytes) {
        best = static_cast<int>(t);
        best_bytes = fixed_bytes;
      }
    }
    if (best < 0) return false;
    const Transition& taken =
        state.transitions[static_cast<std::size_t>(best)];
    visit(best, taken);
    state_index = taken.target;
  }
  return true;
}

std::optional<std::string> IncrementalFsm::match(
    const Conversation& conversation) const {
  std::string path = "p" + std::to_string(port_) + "/";
  bool first = true;
  const auto append = [&](int index, const Transition& /*taken*/) {
    if (!first) path += ".";
    path += std::to_string(index);
    first = false;
  };
  if (!walk(conversation, append)) return std::nullopt;
  return path;
}

std::optional<Bytes> IncrementalFsm::respond(
    const Conversation& dialog_so_far) const {
  const Transition* last = nullptr;
  const auto remember = [&](int /*index*/, const Transition& taken) {
    last = &taken;
  };
  if (!walk(dialog_so_far, remember) || last == nullptr ||
      last->replies.empty()) {
    return std::nullopt;
  }
  // Most common observed reply, ties broken by byte order.
  const auto mode = std::max_element(
      last->replies.begin(), last->replies.end(),
      [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second < b.second;
        return b.first < a.first;
      });
  return mode->first;
}

std::size_t IncrementalFsm::transition_count() const noexcept {
  std::size_t count = 0;
  for (const State& state : states_) count += state.transitions.size();
  return count;
}

std::size_t IncrementalFsm::mature_transition_count() const noexcept {
  std::size_t count = 0;
  for (const State& state : states_) {
    for (const Transition& transition : state.transitions) {
      count += transition.sample_count >= options_.maturity ? 1 : 0;
    }
  }
  return count;
}

}  // namespace repro::proto
