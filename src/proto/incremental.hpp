// Incremental ScriptGen learning — the SGNET gateway life-cycle.
//
// Batch learning (Fsm::learn) assumes a complete training corpus. The
// deployment instead sees conversations one at a time: unknown activity
// is proxied to the sample factory, its (payload-stripped) conversation
// is added as training, and once a dialog cluster has accumulated
// enough samples the model is considered *mature* for it and sensors
// answer autonomously. IncrementalFsm implements that life-cycle with
// stable path identifiers: transitions keep their index across
// refinements, so a path id never changes once assigned.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "proto/fsm.hpp"
#include "proto/message.hpp"
#include "proto/region.hpp"

namespace repro::proto {

class IncrementalFsm {
 public:
  struct Options {
    FsmOptions fsm;
    /// A transition answers autonomously once it has seen this many
    /// training samples (the "sufficient number of samples of the same
    /// type of interaction" of the SGNET design).
    std::size_t maturity = 3;
    /// At most this many exemplar messages are retained per transition
    /// for region re-analysis.
    std::size_t max_exemplars = 4;
  };

  explicit IncrementalFsm(std::uint16_t port)
      : IncrementalFsm(port, Options{}) {}
  IncrementalFsm(std::uint16_t port, Options options)
      : port_(port), options_(options) {
    states_.emplace_back();
  }

  /// Adds one (payload-stripped) training conversation, refining the
  /// model. Throws ConfigError on a port mismatch.
  void train(const Conversation& conversation);

  /// Matches a conversation along *mature* transitions only. Returns
  /// the stable path identifier, or nullopt when any message reaches an
  /// immature or missing transition (the sensor would proxy).
  [[nodiscard]] std::optional<std::string> match(
      const Conversation& conversation) const;

  /// Response emulation — ScriptGen's original purpose: given the
  /// client messages of a dialog in progress, returns the server reply
  /// the model learned for the *last* client message (the most common
  /// reply observed during training). nullopt when the dialog reaches
  /// an immature or unknown transition, or no reply was ever recorded —
  /// the sensor would proxy to the honeyfarm.
  [[nodiscard]] std::optional<Bytes> respond(
      const Conversation& dialog_so_far) const;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::size_t state_count() const noexcept {
    return states_.size();
  }
  [[nodiscard]] std::size_t transition_count() const noexcept;
  [[nodiscard]] std::size_t mature_transition_count() const noexcept;

 private:
  struct Transition {
    std::vector<Region> regions;
    std::vector<Bytes> exemplars;  // capped at max_exemplars
    /// Observed server replies to this request, with occurrence counts.
    std::map<Bytes, std::size_t> replies;
    std::size_t sample_count = 0;
    int target = -1;
  };
  struct State {
    std::vector<Transition> transitions;
  };

  /// Finds the transition whose first exemplar is most similar to the
  /// message (>= threshold); -1 if none.
  [[nodiscard]] int find_cluster(const State& state,
                                 const Bytes& message) const;

  /// Follows the client messages of `conversation` along mature
  /// transitions, at each state taking the matching transition with the
  /// most fixed bytes (the first on a tie), and calls
  /// `visit(index, transition)` for every step. False on a port
  /// mismatch or when a message reaches no mature transition.
  template <typename Visit>
  bool walk(const Conversation& conversation, Visit&& visit) const;

  std::uint16_t port_;
  Options options_;
  std::vector<State> states_;
};

}  // namespace repro::proto
