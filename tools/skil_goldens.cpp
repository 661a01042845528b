// skil-goldens: every pinned virtual time, as data.
//
//   skil-goldens --check|--write [--file=tests/goldens/vtimes.json]
//
// Reruns every run of tests/goldens/pinned_runs.h in forked workers
// (bench/gauss_sweep.h), each under the fuse and coll modes its key
// names.  The knobs that must not move a vtime come from the
// environment (SKIL_ENGINE, SKIL_CARRIERS, SKIL_CHARGE, SKIL_TRACE,
// SKIL_PROF); SKIL_CHARGE=interp rejects fusion by design, so under it
// the fuse=on entries are skipped.  --check prints every value that
// moved, even by one ulp (vtimes are hexfloat strings), as old -> new
// with its relative change; --write rewrites the file.  Both fail when
// a fuse=on entry lies above its fuse=off twin or a coll=auto entry
// above its coll=tree twin.
//
// Exit status: 0 all runs match (or the file was written), 1 a value
// moved, an entry is missing or extra, or a twin rule fails, 2 usage or
// input failure.
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include "gauss_sweep.h"
#include "goldens/pinned_runs.h"
#include "support/cli.h"
#include "support/json.h"

namespace {

using namespace skil;
namespace json = support::json;
using Leaves = std::vector<std::pair<std::string, std::string>>;
using Entries = std::map<std::string, const json::Value*>;

/// `v` as a JSON string holding its hexfloat.
std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%a\"", v);
  return buf;
}

/// The run's entry: its key, vtime and messages sent, and for a small
/// cell every processor's vtime and Stats.
std::string measure(const goldens::PinnedRun& pinned) {
  parix::set_default_fuse_mode(pinned.fuse);
  parix::set_default_coll_mode(pinned.coll);
  const parix::RunResult run = pinned.run();
  std::ostringstream out;
  out << "{" << pinned.key << ", \"vtime_us\": " << hexfloat(run.vtime_us)
      << ", \"messages\": " << run.total.messages_sent;
  const std::size_t procs = pinned.per_proc ? run.proc_stats.size() : 0;
  for (std::size_t p = 0; p < procs; ++p) {
    const parix::Stats& s = run.proc_stats[p];
    out << (p == 0 ? ", \"procs\": [" : ",") << "\n      {\"vtime_us\": "
        << hexfloat(run.proc_vtimes[p])
        << ", \"compute_us\": " << hexfloat(s.compute_us)
        << ", \"comm_us\": " << hexfloat(s.comm_us)
        << ", \"messages_sent\": " << s.messages_sent
        << ", \"bytes_sent\": " << s.bytes_sent
        << ", \"messages_received\": " << s.messages_received
        << ", \"bytes_received\": " << s.bytes_received << ", \"ops\": [";
    for (int k = 0; k < parix::kOpKinds; ++k)
      out << (k == 0 ? "" : ", ") << s.ops[k];
    out << (p + 1 == procs ? "]}]" : "]}");
  }
  out << "}";
  return out.str();
}

/// Every leaf of `v` in file order as (path, text):
/// ("procs[2].ops[0]", "1024").
void flatten(const json::Value& v, const std::string& path, Leaves& out) {
  for (const auto& [name, member] : v.object)
    flatten(member, (path.empty() ? "" : path + ".") + name, out);
  for (std::size_t i = 0; i < v.array.size(); ++i)
    flatten(v.array[i], path + "[" + std::to_string(i) + "]", out);
  if (v.is_object() || v.is_array()) return;
  std::ostringstream number;
  number << std::setprecision(17) << v.number;
  out.emplace_back(path, v.kind == json::Value::Kind::kString
                             ? v.string
                             : number.str());
}

/// The entry's members before its vtime, as in
/// "gauss skil p=4 n=64 fuse=off coll=auto".
std::string key_of(const json::Value& entry) {
  Leaves leaves;
  flatten(entry, "", leaves);
  std::string key;
  for (const auto& [path, text] : leaves) {
    if (path == "vtime_us") break;
    key += (key.empty() ? "" : " ") +
           (path == "app" || path == "variant" ? text : path + "=" + text);
  }
  return key;
}

/// Prints every value that differs between the two entries; returns
/// how many do.
int diff(const std::string& key, const json::Value& pinned,
         const json::Value& fresh) {
  Leaves was, now;
  flatten(pinned, "", was);
  flatten(fresh, "", now);
  was.resize(std::max(was.size(), now.size()), {"", "(none)"});
  now.resize(was.size(), {"", "(none)"});
  int moved = 0;
  for (std::size_t i = 0; i < was.size(); ++i) {
    const std::string& a = was[i].second;
    const std::string& b = now[i].second;
    if (a == b) continue;
    const std::string& name = (was[i].first.empty() ? now : was)[i].first;
    const double x = std::strtod(a.c_str(), nullptr);
    const double y = std::strtod(b.c_str(), nullptr);
    std::printf("moved: %s  %s %s -> %s (%.17g -> %.17g, %+.3e rel)\n",
                key.c_str(), name.c_str(), a.c_str(), b.c_str(), x, y,
                (y - x) / x);
    ++moved;
  }
  return moved;
}

/// Counts, naming each, the entries above their fuse=off or coll=tree
/// twin.
int twin_failures(const Entries& entries) {
  int bad = 0;
  for (const auto& [key, entry] : entries)
    for (const auto& [mode, twin_mode] :
         {std::pair{"fuse=on", "fuse=off"}, {"coll=auto", "coll=tree"}}) {
      const std::size_t at = key.find(mode);
      std::string twin = key;
      const auto it = at == std::string::npos
                          ? entries.end()
                          : entries.find(twin.replace(
                                at, std::string(mode).size(), twin_mode));
      if (it == entries.end()) continue;
      const std::string& vtime = entry->at("vtime_us").string;
      const std::string& twin_vtime = it->second->at("vtime_us").string;
      if (std::strtod(vtime.c_str(), nullptr) <=
          std::strtod(twin_vtime.c_str(), nullptr))
        continue;
      std::printf("twin: %s  vtime %s is above its %s twin's %s\n",
                  key.c_str(), vtime.c_str(), twin_mode, twin_vtime.c_str());
      ++bad;
    }
  return bad;
}

}  // namespace

int main(int argc, char** argv) try {
  const support::Cli cli(argc, argv, {"check", "write", "file"});
  const bool write = cli.get_bool("write");
  SKIL_REQUIRE(write != cli.get_bool("check"),
               "give exactly one of --check and --write");
  const std::string path = cli.get("file", "tests/goldens/vtimes.json");
  const std::string dir = std::filesystem::path(path).parent_path();
  const bool interp =
      parix::default_charge_path() == parix::ChargePath::kInterp;
  SKIL_REQUIRE(!write || !interp,
               "--write needs SKIL_CHARGE=tape: interp rejects fusion");
  SKIL_REQUIRE(!write || (::access(dir.empty() ? "." : dir.c_str(), W_OK) == 0
                          && !std::filesystem::is_directory(path)),
               "cannot write '" + path + "'");
  json::Value doc;
  if (!write) {
    std::ifstream in(path);
    SKIL_REQUIRE(in.good(), "cannot read '" + path + "'");
    std::stringstream text;
    text << in.rdbuf();
    doc = json::parse(text.str());
  }

  std::vector<goldens::PinnedRun> runs = goldens::pinned_runs();
  std::erase_if(runs, [&](const goldens::PinnedRun& run) {
    return interp && run.fuse == parix::FuseMode::kOn;
  });
  std::vector<std::string> keys;
  for (const goldens::PinnedRun& run : runs)
    keys.push_back(key_of(json::parse("{" + run.key + "}")));
  const std::vector<std::string> texts = bench::run_forked(
      runs.size(), static_cast<int>(std::thread::hardware_concurrency()),
      [&](std::size_t i) { return measure(runs[i]); },
      [&](std::size_t i) { return keys[i]; });
  std::vector<json::Value> fresh;
  for (const std::string& text : texts) fresh.push_back(json::parse(text));
  Entries now, was;
  for (std::size_t i = 0; i < fresh.size(); ++i) now[keys[i]] = &fresh[i];
  if (!write)
    for (const json::Value& entry : doc.at("runs").array)
      was[key_of(entry)] = &entry;
  int bad = twin_failures(write ? now : was);

  if (write) {
    if (bad > 0) return 1;
    std::ofstream out(path);
    out << "{\n  \"about\": \"Every pinned virtual time (us, hexfloat) and "
           "messages sent (tests/goldens/pinned_runs.h): Table 1 with seed "
        << goldens::kTable1Seed << ", every other run with seed "
        << goldens::kSeed << ". Rewrite with skil-goldens --write\",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < texts.size(); ++i)
      out << "    " << texts[i] << (i + 1 == texts.size() ? "\n" : ",\n");
    out << "  ]\n}\n";
    SKIL_REQUIRE(out.good(), "cannot write '" + path + "'");
    std::printf("wrote %zu runs to %s\n", texts.size(), path.c_str());
    return 0;
  }
  std::size_t skipped = 0;
  for (const auto& [key, entry] : was) {
    const auto it = now.find(key);
    if (it != now.end()) {
      bad += diff(key, *entry, *it->second);
    } else if (interp && key.find("fuse=on") != std::string::npos) {
      ++skipped;
    } else {
      std::printf("extra: no pinned run makes %s\n", key.c_str());
      ++bad;
    }
  }
  for (const auto& [key, unused] : now)
    if (was.count(key) == 0) {
      std::printf("missing: %s is not in the file\n", key.c_str());
      ++bad;
    }
  if (skipped > 0)
    std::printf("skipped %zu fuse=on entries: SKIL_CHARGE=interp rejects "
                "fusion by design\n", skipped);
  if (bad > 0)
    std::printf("%d differences from %s\n", bad, path.c_str());
  else
    std::printf("ok: all %zu runs match %s bit for bit\n", runs.size(),
                path.c_str());
  return bad > 0 ? 1 : 0;
} catch (const skil::support::ContractError& err) {
  return skil::support::report_cli_error(argv[0], err);
}
