#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>

#include "common/date.h"
#include "common/decimal.h"

namespace qppbench {

using qpp::Date;
using qpp::Decimal;
using qpp::Table;
using qpp::Tuple;
using qpp::TypeId;
using qpp::Value;

namespace {

constexpr size_t kMaxMessages = 20;

int Column(const Table& t, const char* name) {
  const int col = t.schema().FindColumn(name);
  if (col < 0) {
    std::fprintf(stderr, "qppbench: %s has no column %s\n", t.name().c_str(),
                 name);
    std::exit(2);
  }
  return col;
}

/// Integer right after `prefix` ("delta=") in a parameter description.
std::optional<int64_t> ParamInt(const std::string& desc, const std::string& prefix) {
  const size_t pos = desc.find(prefix);
  if (pos == std::string::npos) return std::nullopt;
  const char* begin = desc.c_str() + pos + prefix.size();
  char* end = nullptr;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin) return std::nullopt;
  return v;
}

bool SameDecimal(const Value& v, const Decimal& expected) {
  return v.type() == TypeId::kDecimal && v.decimal_value() == expected;
}

}  // namespace

void CheckLog::Record(const std::string& check, bool passed,
                      const std::string& message) {
  auto& [runs, failed] = counts_[check];
  ++runs;
  if (passed) return;
  ++failed;
  ++failures_;
  if (messages_.size() < kMaxMessages) {
    messages_.push_back(check + ": " + message);
  }
}

void CheckDbgenCardinalities(const qpp::Database& db, double scale_factor,
                             CheckLog* log) {
  auto rows = [&](const char* name) -> int64_t {
    const Table* t = db.GetTable(name);
    return t == nullptr ? -1 : t->num_rows();
  };
  auto expect = [&](const char* name, int64_t want) {
    const int64_t got = rows(name);
    log->Record("dbgen_cardinality", got == want,
                std::string(name) + " has " + std::to_string(got) +
                    " rows, want " + std::to_string(want));
  };
  const auto scaled = [&](double base) {
    return static_cast<int64_t>(std::llround(scale_factor * base));
  };
  expect("region", 5);
  expect("nation", 25);
  expect("supplier", scaled(10000));
  expect("part", scaled(200000));
  expect("customer", scaled(150000));
  expect("orders", scaled(1500000));
  expect("partsupp", 4 * rows("part"));

  const Table* orders = db.GetTable("orders");
  const Table* lineitem = db.GetTable("lineitem");
  if (orders == nullptr || lineitem == nullptr) {
    log->Record("dbgen_cardinality", false, "orders or lineitem missing");
    return;
  }
  std::map<int64_t, int> lines_per_order;
  const int o_key = Column(*orders, "o_orderkey");
  for (int64_t r = 0; r < orders->num_rows(); ++r) {
    lines_per_order[orders->GetValue(r, o_key).int64_value()] = 0;
  }
  const int l_key = Column(*lineitem, "l_orderkey");
  int64_t orphans = 0;
  for (int64_t r = 0; r < lineitem->num_rows(); ++r) {
    auto it = lines_per_order.find(lineitem->GetValue(r, l_key).int64_value());
    if (it == lines_per_order.end()) {
      ++orphans;
    } else {
      ++it->second;
    }
  }
  int64_t out_of_range = 0;
  for (const auto& [key, lines] : lines_per_order) {
    if (lines < 1 || lines > 7) ++out_of_range;
  }
  log->Record("dbgen_cardinality", orphans == 0 && out_of_range == 0,
              "lineitem: " + std::to_string(orphans) + " rows without an order, " +
                  std::to_string(out_of_range) +
                  " orders outside 1..7 lines");
}

void CheckTemplate1(const Table& lineitem, const std::string& param_desc,
                    const std::vector<Tuple>& engine_rows, CheckLog* log) {
  const std::optional<int64_t> delta = ParamInt(param_desc, "delta=");
  if (!delta) {
    log->Record("template1_recompute", false, "unparsable params: " + param_desc);
    return;
  }
  const Date cutoff = Date::FromYmd(1998, 12, 1).AddDays(-static_cast<int>(*delta));
  const int c_flag = Column(lineitem, "l_returnflag");
  const int c_status = Column(lineitem, "l_linestatus");
  const int c_qty = Column(lineitem, "l_quantity");
  const int c_price = Column(lineitem, "l_extendedprice");
  const int c_disc = Column(lineitem, "l_discount");
  const int c_tax = Column(lineitem, "l_tax");
  const int c_ship = Column(lineitem, "l_shipdate");

  struct Group {
    Decimal qty, price, disc_price, charge, disc;
    int64_t count = 0;
  };
  const Decimal one(100, 2);
  std::map<std::pair<std::string, std::string>, Group> groups;
  for (int64_t r = 0; r < lineitem.num_rows(); ++r) {
    if (lineitem.GetValue(r, c_ship).date_value() > cutoff) continue;
    Group& g = groups[{lineitem.GetValue(r, c_flag).string_value(),
                       lineitem.GetValue(r, c_status).string_value()}];
    const Decimal qty = lineitem.GetValue(r, c_qty).decimal_value();
    const Decimal price = lineitem.GetValue(r, c_price).decimal_value();
    const Decimal disc = lineitem.GetValue(r, c_disc).decimal_value();
    const Decimal tax = lineitem.GetValue(r, c_tax).decimal_value();
    const Decimal disc_price = price.Mul(one.Sub(disc));
    g.qty = g.qty.Add(qty);
    g.price = g.price.Add(price);
    g.disc_price = g.disc_price.Add(disc_price);
    g.charge = g.charge.Add(disc_price.Mul(one.Add(tax)));
    g.disc = g.disc.Add(disc);
    ++g.count;
  }

  std::string problem;
  if (engine_rows.size() != groups.size()) {
    problem = "engine returned " + std::to_string(engine_rows.size()) +
              " groups, recomputed " + std::to_string(groups.size());
  }
  for (const Tuple& row : engine_rows) {
    if (!problem.empty()) break;
    if (row.size() != 10 || row[0].type() != TypeId::kString ||
        row[1].type() != TypeId::kString) {
      problem = "unexpected row shape";
      break;
    }
    auto it = groups.find({row[0].string_value(), row[1].string_value()});
    if (it == groups.end()) {
      problem = "unexpected group " + row[0].ToString() + "/" + row[1].ToString();
      break;
    }
    const Group& g = it->second;
    const Decimal n(g.count, 0);
    const bool match =
        SameDecimal(row[2], g.qty) && SameDecimal(row[3], g.price) &&
        SameDecimal(row[4], g.disc_price) && SameDecimal(row[5], g.charge) &&
        SameDecimal(row[6], g.qty.Div(n)) && SameDecimal(row[7], g.price.Div(n)) &&
        SameDecimal(row[8], g.disc.Div(n)) &&
        row[9].type() == TypeId::kInt64 && row[9].int64_value() == g.count;
    if (!match) {
      problem = "group " + row[0].ToString() + "/" + row[1].ToString() +
                " differs: engine sum_charge=" + row[5].ToString() +
                " recomputed " + g.charge.ToString();
    }
  }
  log->Record("template1_recompute", problem.empty(), param_desc + ": " + problem);
}

void CheckTemplate6(const Table& lineitem, const std::string& param_desc,
                    const std::vector<Tuple>& engine_rows, CheckLog* log) {
  const std::optional<int64_t> year = ParamInt(param_desc, "year=");
  const std::optional<int64_t> disc_pct = ParamInt(param_desc, "disc=0.0");
  const std::optional<int64_t> qty = ParamInt(param_desc, "qty=");
  if (!year || !disc_pct || !qty) {
    log->Record("template6_recompute", false, "unparsable params: " + param_desc);
    return;
  }
  const Date from = Date::FromYmd(static_cast<int>(*year), 1, 1);
  const Date to = Date::FromYmd(static_cast<int>(*year) + 1, 1, 1);
  const Decimal disc_lo(*disc_pct - 1, 2);
  const Decimal disc_hi(*disc_pct + 1, 2);
  const Decimal qty_max(*qty * 100, 2);
  const int c_qty = Column(lineitem, "l_quantity");
  const int c_price = Column(lineitem, "l_extendedprice");
  const int c_disc = Column(lineitem, "l_discount");
  const int c_ship = Column(lineitem, "l_shipdate");

  Decimal revenue;
  int64_t matched = 0;
  for (int64_t r = 0; r < lineitem.num_rows(); ++r) {
    const Date ship = lineitem.GetValue(r, c_ship).date_value();
    if (ship < from || ship >= to) continue;
    const Decimal disc = lineitem.GetValue(r, c_disc).decimal_value();
    if (disc < disc_lo || disc > disc_hi) continue;
    if (!(lineitem.GetValue(r, c_qty).decimal_value() < qty_max)) continue;
    revenue = revenue.Add(lineitem.GetValue(r, c_price).decimal_value().Mul(disc));
    ++matched;
  }

  std::string problem;
  if (engine_rows.size() != 1 || engine_rows[0].size() != 1) {
    problem = "engine returned " + std::to_string(engine_rows.size()) + " rows";
  } else if (matched == 0 ? !engine_rows[0][0].is_null()
                          : !SameDecimal(engine_rows[0][0], revenue)) {
    problem = "engine revenue=" + engine_rows[0][0].ToString() +
              " recomputed " + revenue.ToString() + " over " +
              std::to_string(matched) + " rows";
  }
  log->Record("template6_recompute", problem.empty(), param_desc + ": " + problem);
}

std::vector<std::string> CanonicalRows(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  char buf[64];
  for (const Tuple& row : rows) {
    std::string s;
    for (const Value& v : row) {
      if (v.type() == TypeId::kDouble) {
        std::snprintf(buf, sizeof(buf), "%.9g", v.double_value());
        s += buf;
      } else {
        s += v.ToString();
      }
      s += '|';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CheckSameRows(const std::vector<Tuple>& learned_rows,
                   const std::vector<Tuple>& histogram_rows,
                   const std::string& what, CheckLog* log) {
  log->Record("replan_same_rows",
              CanonicalRows(learned_rows) == CanonicalRows(histogram_rows),
              what + ": learned plan returned " +
                  std::to_string(learned_rows.size()) + " rows, histogram plan " +
                  std::to_string(histogram_rows.size()) + ", not the same multiset");
}

void CheckHybridNotWorse(double hybrid_mre, double operator_level_mre,
                         CheckLog* log) {
  log->Record("hybrid_error_not_worse", hybrid_mre <= operator_level_mre,
              "hybrid training-split MRE " + std::to_string(hybrid_mre) +
                  " > operator-level " + std::to_string(operator_level_mre));
}

}  // namespace qppbench
