#include "core.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

namespace loadbench {

// ------------------------------------------------------------ randomness

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Exponential(double rate) { return -std::log1p(-NextDouble()) / rate; }

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

// -------------------------------------------------------------- recorder

void Recorder::Merge(const Recorder& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

namespace {
size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  if (rank < 1) return 0;
  return std::min(static_cast<size_t>(rank) - 1, n - 1);
}
}  // namespace

int64_t Recorder::QuantileNs(double q) const {
  if (samples_.empty()) return 0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return samples_[NearestRank(samples_.size(), q)];
}

int64_t ReferenceQuantile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  // Selection sort on a copy: slow, but obviously an order statistic.
  const size_t k = NearestRank(values.size(), q);
  for (size_t i = 0; i <= k; ++i) {
    size_t min_at = i;
    for (size_t j = i + 1; j < values.size(); ++j) {
      if (values[j] < values[min_at]) min_at = j;
    }
    std::swap(values[i], values[min_at]);
  }
  return values[k];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ----------------------------------------------------------------- pacer

std::vector<int64_t> PoissonArrivals(double rate, double seconds, Rng* rng) {
  std::vector<int64_t> out;
  double t = rng->Exponential(rate);
  while (t < seconds) {
    out.push_back(static_cast<int64_t>(t * 1e9));
    t += rng->Exponential(rate);
  }
  return out;
}

void SetTightTimerSlack() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

// ------------------------------------------------------------------ data

namespace {

constexpr int kDays = 10;
constexpr int kFlightsPerRouteDay = 2;
constexpr int kHotelsPerCityDay = 3;
constexpr size_t kPointLookupTexts = 100;
constexpr int kPriceBandsPerCity = 8;
constexpr size_t kHotFlights = 200;

const char* const kCities[] = {"NewYork", "Paris",  "Rome",  "London",
                               "Berlin",  "Madrid", "Tokyo", "Sydney",
                               "Cairo",   "Lima",   "Oslo",  "Dublin"};

std::string Quote(const std::string& s) { return "'" + s + "'"; }

/// Multi-row INSERT scripts of at most `batch` rows each.
void AppendInserts(const std::string& table,
                   const std::vector<std::string>& rows, size_t batch,
                   std::vector<std::string>* out) {
  for (size_t i = 0; i < rows.size(); i += batch) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t j = i; j < std::min(rows.size(), i + batch); ++j) {
      if (j > i) sql += ", ";
      sql += rows[j];
    }
    out->push_back(sql);
  }
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  Rng rng(seed ^ (salt * 0xD1B54A32D192ED03ull));
  return rng.Next();
}

}  // namespace

Dataset MakeDataset(uint64_t seed) {
  Dataset d;
  Rng rng(Mix(seed, 1));
  for (const char* c : kCities) d.cities.push_back(c);
  for (int day = 1; day <= kDays; ++day) {
    for (const std::string& origin : d.cities) {
      for (const std::string& dest : d.cities) {
        if (origin == dest) continue;
        for (int k = 0; k < kFlightsPerRouteDay; ++k) {
          Flight f;
          f.fno = static_cast<int64_t>(d.flights.size()) + 1;
          f.origin = origin;
          f.dest = dest;
          f.day = day;
          f.price = rng.Range(10, 100) * 10;
          f.seats = rng.Range(500, 900);
          d.flights.push_back(f);
        }
      }
    }
    for (const std::string& city : d.cities) {
      for (int k = 0; k < kHotelsPerCityDay; ++k) {
        Hotel h;
        h.hid = static_cast<int64_t>(d.hotels.size()) + 1;
        h.city = city;
        h.day = day;
        h.price = rng.Range(6, 42) * 10;
        d.hotels.push_back(h);
      }
    }
  }
  d.load_scripts.push_back(
      "CREATE TABLE Flights (fno INT NOT NULL, origin TEXT NOT NULL, "
      "dest TEXT NOT NULL, day INT NOT NULL, price INT NOT NULL, "
      "seats INT NOT NULL); "
      "CREATE TABLE Hotels (hid INT NOT NULL, city TEXT NOT NULL, "
      "day INT NOT NULL, price INT NOT NULL); "
      "CREATE TABLE Reservation (traveler TEXT NOT NULL, fno INT NOT NULL); "
      "CREATE TABLE HotelReservation (traveler TEXT NOT NULL, "
      "hid INT NOT NULL); "
      "CREATE INDEX ON Flights (fno); CREATE INDEX ON Flights (dest); "
      "CREATE INDEX ON Hotels (city); CREATE INDEX ON Reservation (traveler); "
      "CREATE INDEX ON Reservation (fno); "
      "CREATE INDEX ON HotelReservation (traveler)");
  std::vector<std::string> rows;
  for (const Flight& f : d.flights) {
    rows.push_back("(" + std::to_string(f.fno) + ", " + Quote(f.origin) +
                   ", " + Quote(f.dest) + ", " + std::to_string(f.day) + ", " +
                   std::to_string(f.price) + ", " + std::to_string(f.seats) +
                   ")");
  }
  AppendInserts("Flights", rows, 200, &d.load_scripts);
  rows.clear();
  for (const Hotel& h : d.hotels) {
    rows.push_back("(" + std::to_string(h.hid) + ", " + Quote(h.city) + ", " +
                   std::to_string(h.day) + ", " + std::to_string(h.price) +
                   ")");
  }
  AppendInserts("Hotels", rows, 200, &d.load_scripts);
  return d;
}

// ------------------------------------------------------------- workloads

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kBrowse, Workload::kCoordinate, Workload::kDurable}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kBrowse: return "browse";
    case Workload::kCoordinate: return "coordinate";
    case Workload::kDurable: return "durable";
  }
  return "?";
}

const char* ClassName(OpClass c) {
  switch (c) {
    case OpClass::kBrowse: return "browse";
    case OpClass::kBook: return "book";
    case OpClass::kCoord: return "coord";
  }
  return "?";
}

namespace {

struct BrowseText {
  std::string sql;
  int64_t rows = 0;
};

/// The browse workload's SELECT texts: point lookups on fno and
/// dest + price-range scans, about 200 distinct texts.
std::vector<BrowseText> BrowseTexts(const Dataset& data, uint64_t seed) {
  Rng rng(Mix(seed, 2));
  std::vector<BrowseText> out;
  std::set<int64_t> fnos;
  while (fnos.size() < kPointLookupTexts) {
    fnos.insert(rng.Range(1, static_cast<int64_t>(data.flights.size())));
  }
  for (int64_t fno : fnos) {
    out.push_back({"SELECT fno, origin, dest, day, price FROM Flights "
                   "WHERE fno = " + std::to_string(fno),
                   1});
  }
  for (const std::string& city : data.cities) {
    for (int b = 0; b < kPriceBandsPerCity; ++b) {
      const int64_t lo = rng.Range(10, 90) * 10;
      const int64_t hi = lo + rng.Range(5, 30) * 10;
      int64_t rows = 0;
      for (const Flight& f : data.flights) {
        if (f.dest == city && f.price >= lo && f.price <= hi) ++rows;
      }
      out.push_back({"SELECT fno, day, price FROM Flights WHERE dest = " +
                         Quote(city) + " AND price >= " + std::to_string(lo) +
                         " AND price <= " + std::to_string(hi),
                     rows});
    }
  }
  return out;
}

/// The durable workload's hot flights, skewed by Zipf(0.99) rank.
std::vector<int64_t> HotFlights(const Dataset& data, uint64_t seed) {
  Rng rng(Mix(seed, 3));
  std::vector<int64_t> out;
  std::set<int64_t> seen;
  while (out.size() < kHotFlights) {
    const int64_t fno = rng.Range(1, static_cast<int64_t>(data.flights.size()));
    if (seen.insert(fno).second) out.push_back(fno);
  }
  return out;
}

Request Booking(const Dataset& data, Rng* rng, const std::string& traveler,
                int64_t at) {
  Request r;
  r.at_ns = at;
  r.cls = OpClass::kBook;
  r.fno = rng->Range(1, static_cast<int64_t>(data.flights.size()));
  r.traveler = traveler;
  r.sql = "INSERT INTO Reservation VALUES (" + Quote(traveler) + ", " +
          std::to_string(r.fno) + ")";
  return r;
}

/// Adds a group of `size` members (hotel optional) arriving at `at` plus
/// a spread of up to 2 ms each.
void AddGroup(const Dataset& data, Rng* rng, size_t size, bool hotel,
              int64_t at, const std::string& prefix, Stream* s) {
  Group g;
  const Flight& f =
      data.flights[rng->Range(0, static_cast<int64_t>(data.flights.size()) - 1)];
  g.hotel = hotel;
  g.dest = f.dest;
  g.day = f.day;
  g.max_price = f.price + rng->Range(0, 20) * 10;
  if (hotel) {
    std::vector<const Hotel*> local;
    for (const Hotel& h : data.hotels) {
      if (h.city == g.dest && h.day == g.day) local.push_back(&h);
    }
    const Hotel* h = local[rng->Range(0, static_cast<int64_t>(local.size()) - 1)];
    g.max_hotel_price = h->price + rng->Range(0, 10) * 10;
  }
  const int32_t gi = static_cast<int32_t>(s->groups.size());
  for (size_t m = 0; m < size; ++m) {
    g.travelers.push_back(prefix + "m" + std::to_string(m));
  }
  for (size_t m = 0; m < size; ++m) {
    Request r;
    r.at_ns = at + rng->Range(0, 2'000'000);
    r.cls = OpClass::kCoord;
    r.entangled = true;
    r.group = gi;
    r.member = static_cast<int32_t>(m);
    r.owner = g.travelers[m];
    r.sql = EntangledSql(g, m);
    g.last_at_ns = std::max(g.last_at_ns, r.at_ns);
    s->requests.push_back(std::move(r));
  }
  s->groups.push_back(std::move(g));
}

}  // namespace

std::string EntangledSql(const Group& g, size_t member) {
  const std::string self = Quote(g.travelers[member]);
  std::string heads = self + ", fno INTO ANSWER Reservation";
  std::string where = "fno IN (SELECT fno FROM Flights WHERE dest = " +
                      Quote(g.dest) + " AND day = " + std::to_string(g.day) +
                      " AND price <= " + std::to_string(g.max_price) + ")";
  if (g.hotel) {
    heads += ", " + self + ", hid INTO ANSWER HotelReservation";
    where += " AND hid IN (SELECT hid FROM Hotels WHERE city = " +
             Quote(g.dest) + " AND day = " + std::to_string(g.day) +
             " AND price <= " + std::to_string(g.max_hotel_price) + ")";
  }
  for (size_t j = 0; j < g.travelers.size(); ++j) {
    if (j == member) continue;
    where += " AND (" + Quote(g.travelers[j]) + ", fno) IN ANSWER Reservation";
    if (g.hotel) {
      where += " AND (" + Quote(g.travelers[j]) +
               ", hid) IN ANSWER HotelReservation";
    }
  }
  return "SELECT " + heads + " WHERE " + where + " CHOOSE 1";
}

std::vector<std::string> StandingPool(const Dataset& data, size_t n) {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    const Flight& f = data.flights[(i * 7919) % data.flights.size()];
    out.push_back("SELECT 'standing" + std::to_string(i) +
                  "', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno "
                  "FROM Flights WHERE dest = " + Quote(f.dest) +
                  " AND day = " + std::to_string(f.day) + ") AND ('absent" +
                  std::to_string(i) + "', fno) IN ANSWER Reservation CHOOSE 1");
  }
  return out;
}

Stream MakeStream(Workload w, const Dataset& data, double rate,
                  double seconds, uint64_t seed, const std::string& tag) {
  Stream s;
  Rng rng(Mix(seed, 4));
  const std::vector<int64_t> arrivals = PoissonArrivals(rate, seconds, &rng);
  const std::vector<BrowseText> texts =
      w == Workload::kBrowse ? BrowseTexts(data, seed) : std::vector<BrowseText>{};
  const std::vector<int64_t> hot =
      w == Workload::kDurable ? HotFlights(data, seed) : std::vector<int64_t>{};
  const Zipf zipf(kHotFlights, 0.99);
  s.operations = arrivals.size();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const int64_t at = arrivals[i];
    const std::string name = tag + "o" + std::to_string(i);
    const double u = rng.NextDouble();
    switch (w) {
      case Workload::kBrowse:
        if (u < 0.9) {
          const BrowseText& t =
              texts[rng.Range(0, static_cast<int64_t>(texts.size()) - 1)];
          Request r;
          r.at_ns = at;
          r.sql = t.sql;
          r.expect_rows = t.rows;
          s.requests.push_back(std::move(r));
        } else {
          s.requests.push_back(Booking(data, &rng, name, at));
        }
        break;
      case Workload::kCoordinate:
        if (u < 0.7) {
          AddGroup(data, &rng, 2, false, at, name, &s);
        } else if (u < 0.9) {
          AddGroup(data, &rng, 2, true, at, name, &s);
        } else {
          AddGroup(data, &rng, 4, false, at, name, &s);
        }
        break;
      case Workload::kDurable:
        if (u < 0.5) {
          Request r;
          r.at_ns = at;
          r.sql = "SELECT fno, seats FROM Flights WHERE fno = " +
                  std::to_string(hot[zipf.Sample(&rng)]);
          r.expect_rows = 1;
          s.requests.push_back(std::move(r));
        } else if (u < 0.65) {
          s.requests.push_back(Booking(data, &rng, name, at));
        } else if (u < 0.8) {
          Request r;
          r.at_ns = at;
          r.cls = OpClass::kBook;
          r.decrement = true;
          r.fno = hot[zipf.Sample(&rng)];
          r.sql = "UPDATE Flights SET seats = seats - 1 WHERE fno = " +
                  std::to_string(r.fno);
          s.requests.push_back(std::move(r));
        } else {
          AddGroup(data, &rng, 2, false, at, name, &s);
        }
        break;
    }
  }
  // Group members were appended at their own (spread) times; order the
  // whole stream by arrival and re-point the groups at the new indices.
  std::vector<size_t> order(s.requests.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&s](size_t a, size_t b) {
    return s.requests[a].at_ns < s.requests[b].at_ns;
  });
  std::vector<Request> sorted;
  sorted.reserve(order.size());
  for (size_t i : order) sorted.push_back(std::move(s.requests[i]));
  s.requests = std::move(sorted);
  for (Group& g : s.groups) g.members.resize(g.travelers.size());
  for (size_t i = 0; i < s.requests.size(); ++i) {
    const Request& r = s.requests[i];
    if (r.group >= 0) s.groups[r.group].members[r.member] = i;
  }
  return s;
}

// ---------------------------------------------------------------- checks

void Checker::Fail(std::string message) {
  if (errors_.size() < 20) errors_.push_back(std::move(message));
  else if (errors_.size() == 20) errors_.push_back("(more errors elided)");
}

void Checker::OnRegular(const Request& req, const Observed& obs) {
  if (!obs.ok) {
    OnUnacknowledged(req);
    return;
  }
  if (req.cls == OpClass::kBrowse) {
    if (obs.rows != req.expect_rows) {
      Fail("SELECT returned " + std::to_string(obs.rows) + " rows, expected " +
           std::to_string(req.expect_rows) + ": " + req.sql);
    }
  } else if (req.cls == OpClass::kBook) {
    if (req.decrement) {
      ++acked_decrements_[req.fno];
    } else {
      booked_.emplace_back(req.traveler, req.fno);
    }
  }
}

void Checker::OnUnacknowledged(const Request& req) {
  if (req.cls == OpClass::kBook && req.decrement) ++unacked_decrements_[req.fno];
}

void Checker::OnGroupClosed(const Group& g,
                            const std::vector<Observed>& members) {
  const size_t heads = g.hotel ? 2 : 1;
  int64_t fno = -1;
  int64_t hid = 0;
  for (size_t m = 0; m < members.size(); ++m) {
    const Observed& o = members[m];
    const std::string& who = g.travelers[m];
    if (!o.ok || o.answers.size() != heads) {
      Fail("group member " + who + " has " + std::to_string(o.answers.size()) +
           " answers, expected " + std::to_string(heads));
      return;
    }
    if (o.answers[0].first != who || (g.hotel && o.answers[1].first != who)) {
      Fail("answer of " + who + " names another traveler");
      return;
    }
    if (m == 0) fno = o.answers[0].second;
    if (o.answers[0].second != fno) {
      Fail("group of " + who + " split across flights");
      return;
    }
    if (g.hotel) {
      if (m == 0) hid = o.answers[1].second;
      if (o.answers[1].second != hid) {
        Fail("group of " + who + " split across hotels");
        return;
      }
    }
  }
  const int64_t nf = static_cast<int64_t>(data_->flights.size());
  if (fno < 1 || fno > nf) {
    Fail("group answered unknown flight " + std::to_string(fno));
    return;
  }
  const Flight& f = data_->flight(fno);
  if (f.dest != g.dest || f.day != g.day || f.price > g.max_price) {
    Fail("flight " + std::to_string(fno) + " outside the group's domain");
    return;
  }
  if (g.hotel) {
    const int64_t nh = static_cast<int64_t>(data_->hotels.size());
    if (hid < 1 || hid > nh) {
      Fail("group answered unknown hotel " + std::to_string(hid));
      return;
    }
    const Hotel& h = data_->hotel(hid);
    if (h.city != g.dest || h.day != g.day || h.price > g.max_hotel_price) {
      Fail("hotel " + std::to_string(hid) + " outside the group's domain");
      return;
    }
  }
  for (const std::string& t : g.travelers) closed_.push_back({t, {fno, hid}});
}

namespace {
size_t CountPairs(const std::multimap<std::string, int64_t>& m,
                  const std::string& key, int64_t value, size_t* total) {
  const auto range = m.equal_range(key);
  size_t hits = 0;
  *total = 0;
  for (auto it = range.first; it != range.second; ++it) {
    ++*total;
    if (it->second == value) ++hits;
  }
  return hits;
}
}  // namespace

void Checker::CheckFinal(const FinalState& state) {
  size_t total = 0;
  for (const auto& [traveler, fno] : booked_) {
    if (CountPairs(state.reservation, traveler, fno, &total) != 1 ||
        total != 1) {
      Fail("acknowledged booking of " + traveler + " missing or duplicated");
    }
  }
  for (const auto& [traveler, ids] : closed_) {
    if (CountPairs(state.reservation, traveler, ids.first, &total) != 1 ||
        total != 1) {
      Fail("coordinated answer of " + traveler + " not in Reservation");
    }
    if (ids.second != 0 &&
        (CountPairs(state.hotel_reservation, traveler, ids.second, &total) !=
             1 ||
         total != 1)) {
      Fail("coordinated answer of " + traveler + " not in HotelReservation");
    }
  }
  if (!state.has_seats) return;
  for (const Flight& f : data_->flights) {
    const auto acked = acked_decrements_.find(f.fno);
    const auto unacked = unacked_decrements_.find(f.fno);
    const int64_t hi =
        f.seats - (acked == acked_decrements_.end() ? 0 : acked->second);
    const int64_t lo =
        hi - (unacked == unacked_decrements_.end() ? 0 : unacked->second);
    const auto it = state.seats.find(f.fno);
    if (it == state.seats.end() || it->second < lo || it->second > hi) {
      Fail("flight " + std::to_string(f.fno) + " has " +
           (it == state.seats.end() ? std::string("no row")
                                    : std::to_string(it->second)) +
           " seats, expected " + std::to_string(hi));
    }
  }
}

// ----------------------------------------------------------------- spans

const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kRequest: return "request";
    case SpanName::kQueue: return "service.queue";
    case SpanName::kPrepare: return "server.prepare";
    case SpanName::kExecSelect: return "exec.select";
    case SpanName::kExecWrite: return "exec.write";
    case SpanName::kLockWait: return "txn.lock_wait";
    case SpanName::kSubmit: return "entangle.submit";
    case SpanName::kClose: return "entangle.close";
    case SpanName::kCount: break;
  }
  return "?";
}

std::map<uint32_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint32_t, int64_t> self;
  for (const Span& s : spans) self[s.id] += s.end_ns - s.start_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      const auto it = self.find(s.parent);
      if (it != self.end()) it->second -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                int64_t origin_ns) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char buf[320];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"span\":%u,\"parent\":%u,\"class\":\"%s\"}}",
                  first ? "" : ",\n", SpanNameString(s.name),
                  static_cast<unsigned long long>(s.thread),
                  (s.start_ns - origin_ns) / 1e3,
                  (s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.request), s.id, s.parent,
                  ClassName(s.cls));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace loadbench
