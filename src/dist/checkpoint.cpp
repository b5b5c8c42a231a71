#include "dist/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/runner.hpp"
#include "dist/protocol.hpp"
#include "support/error.hpp"

namespace dls::dist {

namespace {

void write_p2(std::ostream& os, const P2Quantile::State& s) {
  os << ' ' << encode_double(s.q) << ' ' << s.n;
  for (const double h : s.heights) os << ' ' << encode_double(h);
  for (const double p : s.pos) os << ' ' << encode_double(p);
  for (const double d : s.desired) os << ' ' << encode_double(d);
}

P2Quantile::State read_p2(const std::vector<std::string>& tokens,
                          std::size_t& at) {
  P2Quantile::State s;
  require(at + 17 <= tokens.size(), "checkpoint: truncated P2 state");
  s.q = decode_double(tokens[at++]);
  s.n = std::strtoull(tokens[at++].c_str(), nullptr, 10);
  for (double& h : s.heights) h = decode_double(tokens[at++]);
  for (double& p : s.pos) p = decode_double(tokens[at++]);
  for (double& d : s.desired) d = decode_double(tokens[at++]);
  return s;
}

}  // namespace

Checkpoint capture_checkpoint(
    const campaign::CampaignReport& report, std::uint64_t spec_fingerprint,
    std::size_t total_cases, std::size_t frontier,
    const std::map<std::size_t, std::vector<double>>& pending) {
  Checkpoint cp;
  cp.spec_fingerprint = spec_fingerprint;
  cp.total_cases = total_cases;
  cp.frontier = frontier;
  cp.pending = pending;
  cp.groups.reserve(report.groups.size());
  for (const campaign::GroupAggregate& group : report.groups) {
    std::vector<MetricState> metrics;
    metrics.reserve(group.metrics.size());
    for (const campaign::MetricAggregate& m : group.metrics)
      metrics.push_back({m.acc.state(), m.p50.state(), m.p95.state()});
    cp.groups.push_back(std::move(metrics));
  }
  return cp;
}

void restore_checkpoint(const Checkpoint& checkpoint,
                        campaign::CampaignReport& report) {
  require(checkpoint.groups.size() == report.groups.size(),
          "checkpoint: group count mismatch against the expanded spec");
  for (std::size_t g = 0; g < checkpoint.groups.size(); ++g) {
    campaign::GroupAggregate& group = report.groups[g];
    require(checkpoint.groups[g].size() == group.metrics.size(),
            "checkpoint: metric count mismatch in group " + std::to_string(g));
    for (std::size_t m = 0; m < group.metrics.size(); ++m) {
      const MetricState& s = checkpoint.groups[g][m];
      group.metrics[m].acc = Accumulator::from_state(s.acc);
      group.metrics[m].p50 = P2Quantile::from_state(s.p50);
      group.metrics[m].p95 = P2Quantile::from_state(s.p95);
    }
  }
}

void write_checkpoint(const Checkpoint& checkpoint, std::ostream& os) {
  os << "dls-checkpoint 2\n";
  os << "spec " << encode_hex64(checkpoint.spec_fingerprint) << "\n";
  os << "total " << checkpoint.total_cases << "\n";
  os << "frontier " << checkpoint.frontier << "\n";
  os << "groups " << checkpoint.groups.size() << "\n";
  for (std::size_t g = 0; g < checkpoint.groups.size(); ++g) {
    os << "group " << g << " " << checkpoint.groups[g].size() << "\n";
    for (const MetricState& m : checkpoint.groups[g]) {
      os << "metric " << m.acc.n << ' ' << encode_double(m.acc.mean) << ' '
         << encode_double(m.acc.m2) << ' ' << encode_double(m.acc.min) << ' '
         << encode_double(m.acc.max) << ' ' << encode_double(m.acc.sum);
      write_p2(os, m.p50);
      write_p2(os, m.p95);
      os << "\n";
    }
  }
  os << "pending " << checkpoint.pending.size() << "\n";
  for (const auto& [index, values] : checkpoint.pending) {
    os << "case " << index << " " << values.size();
    for (const double v : values) os << ' ' << encode_double(v);
    os << "\n";
  }
  os << "end\n";
}

Checkpoint read_checkpoint(std::istream& is) {
  Checkpoint cp;
  std::string line;

  const auto next_line = [&](const char* what) {
    require(static_cast<bool>(std::getline(is, line)),
            std::string("checkpoint: truncated before ") + what);
    return split_tokens(line);
  };
  const auto expect = [&](const std::vector<std::string>& tokens,
                          const char* keyword, std::size_t count) {
    require(tokens.size() == count && tokens[0] == keyword,
            std::string("checkpoint: expected '") + keyword + "' line, got '" +
                line + "'");
  };

  auto tokens = next_line("header");
  require(tokens.size() == 2 && tokens[0] == "dls-checkpoint" &&
              tokens[1] == "2",
          "checkpoint: bad header '" + line + "'");
  tokens = next_line("spec");
  expect(tokens, "spec", 2);
  cp.spec_fingerprint = decode_hex64(tokens[1]);
  tokens = next_line("total");
  expect(tokens, "total", 2);
  cp.total_cases = std::strtoull(tokens[1].c_str(), nullptr, 10);
  tokens = next_line("frontier");
  expect(tokens, "frontier", 2);
  cp.frontier = std::strtoull(tokens[1].c_str(), nullptr, 10);
  tokens = next_line("groups");
  expect(tokens, "groups", 2);
  const std::size_t groups = std::strtoull(tokens[1].c_str(), nullptr, 10);

  cp.groups.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    tokens = next_line("group");
    expect(tokens, "group", 3);
    require(std::strtoull(tokens[1].c_str(), nullptr, 10) == g,
            "checkpoint: group lines out of order");
    const std::size_t metrics = std::strtoull(tokens[2].c_str(), nullptr, 10);
    cp.groups[g].resize(metrics);
    for (std::size_t m = 0; m < metrics; ++m) {
      tokens = next_line("metric");
      require(tokens.size() == 7 + 17 + 17 && tokens[0] == "metric",
              "checkpoint: malformed metric line '" + line + "'");
      MetricState& state = cp.groups[g][m];
      std::size_t at = 1;
      state.acc.n = std::strtoull(tokens[at++].c_str(), nullptr, 10);
      state.acc.mean = decode_double(tokens[at++]);
      state.acc.m2 = decode_double(tokens[at++]);
      state.acc.min = decode_double(tokens[at++]);
      state.acc.max = decode_double(tokens[at++]);
      state.acc.sum = decode_double(tokens[at++]);
      state.p50 = read_p2(tokens, at);
      state.p95 = read_p2(tokens, at);
    }
  }

  tokens = next_line("pending");
  expect(tokens, "pending", 2);
  const std::size_t pending = std::strtoull(tokens[1].c_str(), nullptr, 10);
  for (std::size_t i = 0; i < pending; ++i) {
    tokens = next_line("case");
    require(tokens.size() >= 3 && tokens[0] == "case",
            "checkpoint: malformed case line '" + line + "'");
    const std::size_t index = std::strtoull(tokens[1].c_str(), nullptr, 10);
    const std::size_t count = std::strtoull(tokens[2].c_str(), nullptr, 10);
    require(tokens.size() == 3 + count,
            "checkpoint: case value count mismatch on '" + line + "'");
    std::vector<double> values;
    values.reserve(count);
    for (std::size_t v = 0; v < count; ++v)
      values.push_back(decode_double(tokens[3 + v]));
    require(index >= cp.frontier,
            "checkpoint: pending case below the frontier");
    cp.pending.emplace(index, std::move(values));
  }
  tokens = next_line("end");
  expect(tokens, "end", 1);
  return cp;
}

void save_checkpoint_file(const Checkpoint& checkpoint,
                          const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    require(static_cast<bool>(out),
            "checkpoint: cannot write '" + tmp + "'");
    write_checkpoint(checkpoint, out);
    out.flush();
    require(static_cast<bool>(out), "checkpoint: write to '" + tmp + "' failed");
  }
  require(std::rename(tmp.c_str(), path.c_str()) == 0,
          "checkpoint: cannot rename '" + tmp + "' over '" + path + "'");
}

Checkpoint load_checkpoint_file(const std::string& path,
                                std::uint64_t expected_fingerprint) {
  std::ifstream in(path);
  require(static_cast<bool>(in), "checkpoint: cannot open '" + path + "'");
  const Checkpoint cp = read_checkpoint(in);
  require(cp.spec_fingerprint == expected_fingerprint,
          "checkpoint: '" + path +
              "' was written for a different campaign spec (fingerprint " +
              encode_hex64(cp.spec_fingerprint) + " != " +
              encode_hex64(expected_fingerprint) +
              ") — refusing to resume");
  return cp;
}

}  // namespace dls::dist
