// TCP load generator for `wikimatch serve --listen`.
//
// One thread, one epoll set, a few pipelined connections taking requests
// round robin, like independent users each holding one. Open loop (the
// default): request k is due at a fixed time from the rate ladder,
// whatever the server does, and its latency is measured from that due
// time, so a stall is charged to every request queued behind it. How late
// the generator itself ran is reported next to the results. Closed loop:
// each connection holds one request at a time and sends the next as soon
// as the answer is in, for one step of step_s seconds; latency is the
// round trip of one request to an otherwise idle server. Every response
// is checked afterwards against an in-process MatchService::Handle of the
// same line on the snapshot(s) the server may have been serving.

#ifndef WIKIMATCH_E2EBENCH_LOADGEN_H_
#define WIKIMATCH_E2EBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct LoadgenConfig {
  uint16_t port = 0;
  std::vector<std::string> lines;  ///< request k sends lines[(offset+k) % n]
  size_t offset = 0;
  std::vector<double> rates;  ///< requests/s per ladder step
  double step_s = 1.0;        ///< duration of every step
  size_t conns = 4;
  /// Stop issuing requests once stdin reaches end of file (the caller's
  /// way to end an open-ended window early).
  bool stop_on_stdin_eof = false;
  /// Poll without sleeping, so the generator's own wake-ups add no
  /// latency (costs one core).
  bool spin = false;
  /// Closed loop instead of the rate ladder (rates holds one label).
  bool closed = false;
  double drain_timeout_s = 5.0;
  /// When non-empty: one line per answered request, "<due ns> <latency
  /// ms>", the due time on the steady clock (CLOCK_MONOTONIC).
  std::string record_path;
  /// Snapshots a response may legitimately come from; empty = no check.
  std::vector<std::string> verify_snapshots;
  /// When non-empty: for each verify snapshot P with a file P.probe, that
  /// file must hold exactly the in-process answer to this line on P.
  std::string probe;
  size_t verify_threads = 3;
};

/// Runs the ladder and returns the JSON result (one object).
std::string RunLoadgen(const LoadgenConfig& config);

/// How many of `answer_paths` do not hold exactly the in-process answer
/// to `line` on the snapshot at `snapshot_path`, loaded with its cache
/// off; an unreadable file counts. -1 when the snapshot cannot be loaded.
int64_t AnswerMismatches(const std::string& snapshot_path,
                         const std::string& line,
                         const std::vector<std::string>& answer_paths);

}  // namespace e2e

#endif  // WIKIMATCH_E2EBENCH_LOADGEN_H_
