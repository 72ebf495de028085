// The engine-independent parts of the repo benchmark: a seeded random
// source, the exact latency recorder, the Poisson pacer, the generated
// travel dataset and request streams, the output checks and the span
// buffer. Nothing here includes engine headers, so the self-tests in
// selftest.cc exercise these pieces without an engine, and a change to
// the engine cannot change the inputs a seed produces.

#ifndef LOADBENCH_CORE_H_
#define LOADBENCH_CORE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace loadbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ randomness

/// splitmix64: a small, fully specified generator, so the same seed gives
/// the same stream with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// Exponential with the given rate (events per unit).
  double Exponential(double rate);

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n), by inverse CDF over a precomputed table.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// -------------------------------------------------------------- recorder

/// Exact latency recorder: keeps every sample, so a quantile is an order
/// statistic of the measured values with no bucketing error.
class Recorder {
 public:
  void Record(int64_t ns) { samples_.push_back(ns); }
  void Merge(const Recorder& other);
  size_t count() const { return samples_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  int64_t QuantileNs(double q) const;
  double QuantileUs(double q) const { return QuantileNs(q) / 1e3; }

 private:
  mutable std::vector<int64_t> samples_;
  mutable bool sorted_ = false;
};

/// Nearest-rank quantile of an unsorted copy — the reference the
/// self-tests hold the recorder to.
int64_t ReferenceQuantile(std::vector<int64_t> values, double q);

double Median(std::vector<double> values);

// ----------------------------------------------------------------- pacer

/// Arrival offsets (ns from the leg start) of a Poisson process at
/// `rate` per second over `seconds`.
std::vector<int64_t> PoissonArrivals(double rate, double seconds, Rng* rng);

/// Lowers the calling thread's timer slack to 1 ns (Linux), so a sleep
/// ends within microseconds of its deadline.
void SetTightTimerSlack();

/// Result of pacing a schedule on the calling thread.
struct PaceStats {
  Recorder lateness;  ///< Send time minus scheduled time.
  double achieved_rate = 0;
};

/// Sleeps until each arrival (relative to `start_ns`) and calls
/// `fire(i)`; records how late each call began. Never spins: a spinning
/// pacer would burn a core the engine needs. Call SetTightTimerSlack()
/// on the pacing thread first so sleeps overshoot by microseconds.
template <typename Fire>
PaceStats Pace(const std::vector<int64_t>& arrivals, int64_t start_ns,
               Fire&& fire);

// ------------------------------------------------------------------ data

struct Flight {
  int64_t fno = 0;
  std::string origin;
  std::string dest;
  int64_t day = 0;
  int64_t price = 0;
  int64_t seats = 0;
};

struct Hotel {
  int64_t hid = 0;
  std::string city;
  int64_t day = 0;
  int64_t price = 0;
};

/// The benchmark's own copy of the travel database it loads.
struct Dataset {
  std::vector<std::string> cities;
  std::vector<Flight> flights;  ///< flights[i].fno == i + 1
  std::vector<Hotel> hotels;    ///< hotels[i].hid == i + 1
  /// Schema and data as SQL scripts, in load order.
  std::vector<std::string> load_scripts;

  const Flight& flight(int64_t fno) const { return flights[fno - 1]; }
  const Hotel& hotel(int64_t hid) const { return hotels[hid - 1]; }
};

Dataset MakeDataset(uint64_t seed);

// ------------------------------------------------------------- workloads

enum class Workload { kBrowse, kCoordinate, kDurable };
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Operation classes with their own latency series.
enum class OpClass : uint8_t { kBrowse = 0, kBook = 1, kCoord = 2 };
inline constexpr int kNumClasses = 3;
const char* ClassName(OpClass c);

/// One statement the generator sends.
struct Request {
  int64_t at_ns = 0;  ///< Scheduled arrival, from the leg start.
  OpClass cls = OpClass::kBrowse;
  bool entangled = false;
  std::string sql;
  std::string owner;
  /// kBrowse: expected row count.
  int64_t expect_rows = -1;
  /// kBook: the flight written; `decrement` for the seat UPDATE,
  /// otherwise an INSERT booking of `traveler`.
  int64_t fno = 0;
  bool decrement = false;
  std::string traveler;
  /// kCoord: index into the leg's groups, and of the member within it.
  int32_t group = -1;
  int32_t member = -1;
};

/// One coordination: members submitted as separate entangled queries.
struct Group {
  std::vector<size_t> members;  ///< Request indices, by member.
  std::vector<std::string> travelers;
  bool hotel = false;
  std::string dest;
  int64_t day = 0;
  int64_t max_price = 0;
  int64_t max_hotel_price = 0;
  int64_t last_at_ns = 0;  ///< Scheduled arrival of the last member.
};

struct Stream {
  std::vector<Request> requests;  ///< Sorted by at_ns.
  std::vector<Group> groups;
  size_t operations = 0;  ///< Statements plus groups counted once.
};

/// The request stream of one leg: operations arrive by a Poisson process
/// at `rate` per second for `seconds`; a group is one operation whose
/// members arrive spread over a short random delay. `tag` makes every
/// generated traveler name unique within a run.
Stream MakeStream(Workload w, const Dataset& data, double rate,
                  double seconds, uint64_t seed, const std::string& tag);

/// The never-matching entangled queries registered at set-up (coordinate).
std::vector<std::string> StandingPool(const Dataset& data, size_t n);

/// The entangled SQL the travel middle tier sends for one member.
std::string EntangledSql(const Group& g, size_t member);

// ---------------------------------------------------------------- checks

/// What came back for one request.
struct Observed {
  bool ok = false;
  int64_t rows = -1;  ///< Regular statements: row count (SELECT).
  /// Entangled: answer tuples as (traveler, id) per head atom, in head
  /// order (fno first, then hid when the group books a hotel).
  std::vector<std::pair<std::string, int64_t>> answers;
};

/// Final contents of the relations the checks read.
struct FinalState {
  std::multimap<std::string, int64_t> reservation;        ///< traveler->fno
  std::multimap<std::string, int64_t> hotel_reservation;  ///< traveler->hid
  std::map<int64_t, int64_t> seats;                       ///< fno->seats
  bool has_seats = false;
};

/// Accumulates acknowledgements across legs and checks them.
class Checker {
 public:
  explicit Checker(const Dataset* data) : data_(data) {}

  /// Checks a regular request's reply on the spot (row counts) and books
  /// acknowledged writes for the final-state check.
  void OnRegular(const Request& req, const Observed& obs);
  /// A group every member of which was answered: members must share an
  /// fno (and hid) satisfying their domain.
  void OnGroupClosed(const Group& g, const std::vector<Observed>& members);
  /// A write that was sent but not acknowledged may or may not have run.
  void OnUnacknowledged(const Request& req);

  /// Every acknowledged write and closed group must be in `state`; seat
  /// counts equal the initial counts minus acknowledged decrements (up to
  /// unacknowledged ones).
  void CheckFinal(const FinalState& state);

  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Fail(std::string message);

  const Dataset* data_;
  std::vector<std::pair<std::string, int64_t>> booked_;  ///< traveler,fno
  std::map<int64_t, int64_t> acked_decrements_;
  std::map<int64_t, int64_t> unacked_decrements_;
  /// traveler -> (fno, hid or 0) of closed coordinations.
  std::vector<std::pair<std::string, std::pair<int64_t, int64_t>>> closed_;
  std::vector<std::string> errors_;
};

// ----------------------------------------------------------------- spans

/// Span names: one per layer boundary the traced run times.
enum class SpanName : uint8_t {
  kRequest,
  kQueue,
  kPrepare,
  kExecSelect,
  kExecWrite,
  kLockWait,
  kSubmit,
  kClose,
  kCount,
};
const char* SpanNameString(SpanName n);

struct Span {
  uint64_t request = 0;  ///< Shared by every span of one request.
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 for a root.
  SpanName name = SpanName::kRequest;
  OpClass cls = OpClass::kBrowse;  ///< Class of the request.
  uint32_t thread = 0;  ///< Stage thread that recorded it (trace lane).
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans of one thread, kept in memory until the run ends.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t id_base) : next_id_(id_base) {}
  uint32_t NextId() { return next_id_++; }
  void Add(const Span& s) { spans_.push_back(s); }
  std::vector<Span>& spans() { return spans_; }

 private:
  uint32_t next_id_;
  std::vector<Span> spans_;
};

/// Self time of each span: its duration minus what its children cover.
/// Children of one parent must not overlap (the staged path is serial).
std::map<uint32_t, int64_t> SelfTimes(const std::vector<Span>& spans);

/// Writes spans in the Chrome trace-event format (chrome://tracing,
/// Perfetto). Returns false if the file cannot be written.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                int64_t origin_ns);

// ------------------------------------------------------------ template impl

template <typename Fire>
PaceStats Pace(const std::vector<int64_t>& arrivals, int64_t start_ns,
               Fire&& fire) {
  PaceStats out;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const int64_t due = start_ns + arrivals[i];
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    out.lateness.Record(now - due);
    fire(i);
  }
  const double secs = (NowNs() - start_ns) / 1e9;
  out.achieved_rate = secs > 0 ? arrivals.size() / secs : 0;
  return out;
}

}  // namespace loadbench

#endif  // LOADBENCH_CORE_H_
