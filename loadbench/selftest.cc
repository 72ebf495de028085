// Self-tests of the benchmark's own parts: the Poisson pacer, the exact
// recorder, the output checks and the seeded request stream. Run with
// `python3 loadbench/run.py --selftest`; exits non-zero on any failure.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core.h"

namespace loadbench {
namespace {

int failures = 0;

void Expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "PASS" : "FAIL", what.c_str());
  if (!cond) ++failures;
}

void TestPacer() {
  SetTightTimerSlack();
  Rng rng(42);
  const double rate = 4000;
  const double secs = 1.0;
  const std::vector<int64_t> arrivals = PoissonArrivals(rate, secs, &rng);
  // Poisson count: mean 4000, sd ~63; 5% is > 3 sd.
  Expect(std::fabs(arrivals.size() - rate * secs) < 0.05 * rate * secs,
         "pacer: schedule holds the mean rate (" +
             std::to_string(arrivals.size()) + " arrivals)");
  size_t fired = 0;
  const int64_t start = NowNs();
  const PaceStats stats = Pace(arrivals, start, [&](size_t) { ++fired; });
  Expect(fired == arrivals.size(), "pacer: fires every arrival");
  Expect(stats.lateness.count() == arrivals.size(),
         "pacer: reports lateness for every arrival");
  Expect(std::fabs(stats.achieved_rate - rate) < 0.05 * rate,
         "pacer: achieved rate " + std::to_string(stats.achieved_rate) +
             " within 5% of " + std::to_string(rate));
  Expect(stats.lateness.QuantileNs(0.5) < 1'000'000,
         "pacer: median lateness under 1 ms");
  // A stalled fire makes every later arrival late, and that shows.
  const std::vector<int64_t> burst = {0, 1'000'000, 2'000'000};
  const PaceStats stalled = Pace(burst, NowNs(), [](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  Expect(stalled.lateness.QuantileNs(1.0) >= 2'000'000,
         "pacer: a stall shows as lateness of later arrivals");
}

void TestRecorder() {
  Rng rng(7);
  for (size_t n : {1u, 2u, 10u, 101u, 5000u}) {
    Recorder r;
    std::vector<int64_t> ref;
    for (size_t i = 0; i < n; ++i) {
      const int64_t v = static_cast<int64_t>(rng.Next() % 1'000'000);
      r.Record(v);
      ref.push_back(v);
    }
    bool all = true;
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      all = all && r.QuantileNs(q) == ReferenceQuantile(ref, q);
    }
    Expect(all, "recorder: quantiles match a sorted reference, n=" +
                    std::to_string(n));
  }
  Recorder a, b;
  a.Record(3);
  b.Record(1);
  b.Record(2);
  a.Merge(b);
  Expect(a.count() == 3 && a.QuantileNs(0.5) == 2 && a.QuantileNs(1.0) == 3,
         "recorder: merge keeps every sample");
}

void TestStreamDeterminism() {
  const Dataset d1 = MakeDataset(5);
  const Dataset d2 = MakeDataset(5);
  Expect(d1.load_scripts == d2.load_scripts, "stream: same seed, same data");
  for (Workload w :
       {Workload::kBrowse, Workload::kCoordinate, Workload::kDurable}) {
    const Stream a = MakeStream(w, d1, 2000, 0.5, 9, "t_");
    const Stream b = MakeStream(w, d2, 2000, 0.5, 9, "t_");
    const Stream c = MakeStream(w, d1, 2000, 0.5, 10, "t_");
    bool same = a.requests.size() == b.requests.size() &&
                a.groups.size() == b.groups.size();
    for (size_t i = 0; same && i < a.requests.size(); ++i) {
      same = a.requests[i].sql == b.requests[i].sql &&
             a.requests[i].at_ns == b.requests[i].at_ns &&
             a.requests[i].owner == b.requests[i].owner;
    }
    bool differs = a.requests.size() != c.requests.size();
    for (size_t i = 0; !differs && i < a.requests.size(); ++i) {
      differs = a.requests[i].sql != c.requests[i].sql ||
                a.requests[i].at_ns != c.requests[i].at_ns;
    }
    const std::string name = WorkloadName(w);
    Expect(same, "stream: same seed gives an identical " + name + " stream");
    Expect(differs, "stream: another seed gives another " + name + " stream");
    bool sorted = true;
    for (size_t i = 1; i < a.requests.size(); ++i) {
      sorted = sorted && a.requests[i - 1].at_ns <= a.requests[i].at_ns;
    }
    Expect(sorted, "stream: " + name + " requests in arrival order");
  }
}

/// A group from the coordinate stream and answers that satisfy it.
struct GroupCase {
  Group g;
  std::vector<Observed> good;
};

GroupCase FirstGroup(const Dataset& d, bool hotel) {
  const Stream s = MakeStream(Workload::kCoordinate, d, 2000, 1.0, 3, "c_");
  for (const Group& g : s.groups) {
    if (g.hotel != hotel) continue;
    GroupCase out;
    out.g = g;
    int64_t fno = 0;
    for (const Flight& f : d.flights) {
      if (f.dest == g.dest && f.day == g.day && f.price <= g.max_price) {
        fno = f.fno;
        break;
      }
    }
    int64_t hid = 0;
    for (const Hotel& h : d.hotels) {
      if (h.city == g.dest && h.day == g.day && h.price <= g.max_hotel_price) {
        hid = h.hid;
        break;
      }
    }
    for (const std::string& t : g.travelers) {
      Observed o;
      o.ok = true;
      o.answers.push_back({t, fno});
      if (hotel) o.answers.push_back({t, hid});
      out.good.push_back(o);
    }
    return out;
  }
  return {};
}

void TestChecks() {
  const Dataset d = MakeDataset(11);
  const Stream browse = MakeStream(Workload::kBrowse, d, 2000, 0.5, 1, "b_");
  const Request* select = nullptr;
  const Request* booking = nullptr;
  for (const Request& r : browse.requests) {
    if (r.cls == OpClass::kBrowse && select == nullptr) select = &r;
    if (r.cls == OpClass::kBook && booking == nullptr) booking = &r;
  }
  {
    Checker c(&d);
    Observed o;
    o.ok = true;
    o.rows = select->expect_rows;
    c.OnRegular(*select, o);
    Expect(c.ok(), "checks: accept a SELECT with the expected row count");
    o.rows = select->expect_rows + 1;
    c.OnRegular(*select, o);
    Expect(!c.ok(), "checks: reject a SELECT with a wrong row count");
  }
  {
    Checker c(&d);
    Observed o;
    o.ok = true;
    c.OnRegular(*booking, o);
    FinalState state;
    c.CheckFinal(state);
    Expect(!c.ok(), "checks: reject a final state missing an acked booking");
    Checker c2(&d);
    c2.OnRegular(*booking, o);
    state.reservation.emplace(booking->traveler, booking->fno);
    c2.CheckFinal(state);
    Expect(c2.ok(), "checks: accept a final state holding the booking");
  }
  for (bool hotel : {false, true}) {
    const GroupCase gc = FirstGroup(d, hotel);
    const std::string kind = hotel ? " (flight + hotel)" : " (flight)";
    {
      Checker c(&d);
      c.OnGroupClosed(gc.g, gc.good);
      FinalState state;
      for (const Observed& o : gc.good) {
        state.reservation.emplace(o.answers[0].first, o.answers[0].second);
        if (hotel) {
          state.hotel_reservation.emplace(o.answers[1].first,
                                          o.answers[1].second);
        }
      }
      c.CheckFinal(state);
      Expect(c.ok(), "checks: accept a valid coordination" + kind);
      Checker missing(&d);
      missing.OnGroupClosed(gc.g, gc.good);
      missing.CheckFinal(FinalState{});
      Expect(!missing.ok(),
             "checks: reject answers absent from the answer relations" + kind);
    }
    {
      Checker c(&d);
      std::vector<Observed> split = gc.good;
      split[1].answers[0].second += 1;
      c.OnGroupClosed(gc.g, split);
      Expect(!c.ok(), "checks: reject a group split across flights" + kind);
    }
    {
      Checker c(&d);
      std::vector<Observed> outside = gc.good;
      int64_t wrong = 0;
      for (const Flight& f : d.flights) {
        if (f.dest != gc.g.dest) {
          wrong = f.fno;
          break;
        }
      }
      for (Observed& o : outside) o.answers[0].second = wrong;
      c.OnGroupClosed(gc.g, outside);
      Expect(!c.ok(), "checks: reject a flight outside the domain" + kind);
    }
    if (hotel) {
      Checker c(&d);
      std::vector<Observed> outside = gc.good;
      for (Observed& o : outside) o.answers[1].second = 1;
      const Hotel& h = d.hotel(1);
      const bool in_domain = h.city == gc.g.dest && h.day == gc.g.day &&
                             h.price <= gc.g.max_hotel_price;
      c.OnGroupClosed(gc.g, outside);
      Expect(in_domain || !c.ok(),
             "checks: reject a hotel outside the domain" + kind);
    }
  }
  {
    // Seats: initial minus acknowledged decrements, exactly.
    const Stream durable =
        MakeStream(Workload::kDurable, d, 2000, 0.5, 2, "d_");
    const Request* dec = nullptr;
    for (const Request& r : durable.requests) {
      if (r.decrement) {
        dec = &r;
        break;
      }
    }
    Checker c(&d);
    Observed o;
    o.ok = true;
    c.OnRegular(*dec, o);
    FinalState state;
    state.has_seats = true;
    for (const Flight& f : d.flights) state.seats[f.fno] = f.seats;
    Checker lost(&d);
    lost.OnRegular(*dec, o);
    lost.CheckFinal(state);
    Expect(!lost.ok(), "checks: reject seats missing an acked decrement");
    state.seats[dec->fno] -= 1;
    c.CheckFinal(state);
    Expect(c.ok(), "checks: accept seats equal to initial minus decrements");
  }
}

}  // namespace
}  // namespace loadbench

int main() {
  loadbench::TestRecorder();
  loadbench::TestStreamDeterminism();
  loadbench::TestChecks();
  loadbench::TestPacer();
  std::printf("%d failure(s)\n", loadbench::failures);
  return loadbench::failures == 0 ? 0 : 1;
}
