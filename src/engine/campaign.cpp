#include "engine/campaign.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "workload/geometries.hpp"
#include "workload/replicate.hpp"

namespace mthfx::engine {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::runtime_error("campaign line " + std::to_string(line) + ": " +
                           msg);
}

std::string strip_comment(const std::string& line) {
  const auto pos = line.find('#');
  return pos == std::string::npos ? line : line.substr(0, pos);
}

std::vector<std::string> rest_of_line(std::istringstream& line, int lineno,
                                      const std::string& key) {
  std::vector<std::string> values;
  std::string token;
  while (line >> token) values.push_back(token);
  if (values.empty()) fail(lineno, "keyword '" + key + "' needs a value");
  return values;
}

std::string single_value(std::istringstream& line, int lineno,
                         const std::string& key) {
  auto values = rest_of_line(line, lineno, key);
  if (values.size() != 1)
    fail(lineno, "keyword '" + key + "' takes exactly one value");
  return values.front();
}

std::vector<int> to_ints(const std::vector<std::string>& values, int lineno,
                         const std::string& key) {
  std::vector<int> out;
  out.reserve(values.size());
  for (const auto& v : values) {
    try {
      out.push_back(std::stoi(v));
    } catch (const std::exception&) {
      fail(lineno, "keyword '" + key + "': '" + v + "' is not an integer");
    }
  }
  return out;
}

}  // namespace

CampaignSpec parse_campaign(const std::string& text) {
  CampaignSpec spec;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  bool in_sweep = false;
  SweepSpec sweep;
  std::set<std::string> seen;  // duplicate-keyword guard, per scope

  auto reject_duplicate = [&seen](int at_line, const std::string& key) {
    if (!seen.insert(key).second)
      fail(at_line, "duplicate keyword '" + key +
                        "' (each keyword may appear only once per scope)");
  };

  while (std::getline(in, raw)) {
    ++lineno;
    std::istringstream line(strip_comment(raw));
    std::string key;
    if (!(line >> key)) continue;  // blank line

    if (!in_sweep) {
      if (key == "sweep") {
        std::string extra;
        if (line >> extra)
          fail(lineno, "unexpected token '" + extra + "' after 'sweep'");
        in_sweep = true;
        sweep = SweepSpec{};
        seen.clear();
        continue;
      }
      reject_duplicate(lineno, key);
      const std::string value = single_value(line, lineno, key);
      try {
        if (key == "concurrency")
          spec.engine.concurrency = static_cast<std::size_t>(std::stoul(value));
        else if (key == "queue_capacity")
          spec.engine.tenant_defaults.max_queued =
              static_cast<std::size_t>(std::stoul(value));
        else if (key == "total_threads")
          spec.engine.total_threads =
              static_cast<std::size_t>(std::stoul(value));
        else if (key == "job_retries")
          spec.engine.max_job_retries =
              static_cast<std::size_t>(std::stoul(value));
        else if (key == "checkpoint_dir")
          spec.engine.checkpoint_dir = value;
        else if (key == "journal")
          spec.engine.journal_path = value;
        else if (key == "store_dir")
          spec.engine.store_dir = value;
        else if (key == "store_max_bytes")
          spec.engine.store_max_bytes = std::stoull(value);
        else if (key == "deadline") {
          spec.engine.default_deadline_seconds = std::stod(value);
          if (spec.engine.default_deadline_seconds < 0.0)
            fail(lineno, "deadline must be >= 0");
        } else if (key == "degrade_depth")
          spec.engine.degrade_depth =
              static_cast<std::size_t>(std::stoul(value));
        else if (key == "backoff_base_ms")
          spec.engine.backoff.base_ms = std::stod(value);
        else if (key == "backoff_max_ms")
          spec.engine.backoff.max_ms = std::stod(value);
        else if (key == "backoff_jitter")
          spec.engine.backoff.jitter = std::stod(value);
        else if (key == "backoff_seed")
          spec.engine.backoff.seed = std::stoull(value);
        else if (key == "cache") {
          if (value == "on")
            spec.engine.cache = true;
          else if (value == "off")
            spec.engine.cache = false;
          else
            fail(lineno, "cache must be on|off");
        } else
          fail(lineno, "unknown engine keyword '" + key + "'");
      } catch (const std::invalid_argument&) {
        fail(lineno, "keyword '" + key + "': bad value '" + value + "'");
      }
      continue;
    }

    // Inside a sweep block.
    if (key == "end") {
      std::string extra;
      if (line >> extra)
        fail(lineno, "unexpected token '" + extra + "' after 'end'");
      if (sweep.repeat < 1) fail(lineno, "repeat must be >= 1");
      spec.sweeps.push_back(sweep);
      in_sweep = false;
      seen.clear();
      continue;
    }
    reject_duplicate(lineno, key);
    if (key == "molecules") {
      sweep.molecules = rest_of_line(line, lineno, key);
    } else if (key == "sizes") {
      sweep.sizes = to_ints(rest_of_line(line, lineno, key), lineno, key);
      for (const int n : sweep.sizes)
        if (n < 1) fail(lineno, "sizes must be >= 1");
    } else if (key == "bases") {
      sweep.bases = rest_of_line(line, lineno, key);
    } else if (key == "methods") {
      sweep.methods = rest_of_line(line, lineno, key);
    } else {
      const std::string value = single_value(line, lineno, key);
      try {
        if (key == "spacing")
          sweep.spacing_bohr = std::stod(value);
        else if (key == "task") {
          if (value == "energy")
            sweep.task = app::Task::kEnergy;
          else if (value == "gradient")
            sweep.task = app::Task::kGradient;
          else if (value == "md")
            sweep.task = app::Task::kMd;
          else
            fail(lineno, "task must be energy|gradient|md");
        } else if (key == "eps_schwarz")
          sweep.eps_schwarz = std::stod(value);
        else if (key == "md_steps")
          sweep.md_steps = std::stoi(value);
        else if (key == "md_timestep_fs")
          sweep.md_timestep_fs = std::stod(value);
        else if (key == "md_temperature_k")
          sweep.md_temperature_k = std::stod(value);
        else if (key == "grid_radial")
          sweep.grid_radial = std::stoi(value);
        else if (key == "grid_angular")
          sweep.grid_angular = std::stoi(value);
        else if (key == "priority")
          sweep.priority = std::stoi(value);
        else if (key == "repeat")
          sweep.repeat = std::stoi(value);
        else if (key == "deadline") {
          sweep.deadline_seconds = std::stod(value);
          if (sweep.deadline_seconds < 0.0)
            fail(lineno, "deadline must be >= 0");
        } else if (key == "fault_spec")
          sweep.fault = fault::parse_fault_spec(value);
        else
          fail(lineno, "unknown sweep keyword '" + key + "'");
      } catch (const std::invalid_argument& e) {
        fail(lineno, key == "fault_spec"
                         ? std::string(e.what())
                         : "keyword '" + key + "': bad value '" + value + "'");
      }
    }
  }
  if (in_sweep)
    throw std::runtime_error("campaign: sweep block not closed with 'end'");
  if (spec.sweeps.empty())
    throw std::runtime_error("campaign: no sweep block given");
  return spec;
}

CampaignSpec parse_campaign_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("campaign: cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_campaign(buffer.str());
}

std::vector<Job> CampaignSpec::expand() const {
  std::vector<Job> jobs;
  for (const SweepSpec& sweep : sweeps) {
    for (int rep = 0; rep < sweep.repeat; ++rep) {
      for (const std::string& molecule : sweep.molecules) {
        const chem::Molecule unit = workload::by_name(molecule);
        for (const int size : sweep.sizes) {
          const chem::Molecule cluster =
              workload::cluster_of(unit, size, sweep.spacing_bohr);
          for (const std::string& basis : sweep.bases) {
            for (const std::string& method : sweep.methods) {
              Job job;
              job.name = molecule + ".n" + std::to_string(size) + "." +
                         basis + "." + method;
              if (sweep.repeat > 1)
                job.name += "#r" + std::to_string(rep + 1);
              job.priority = sweep.priority;
              job.deadline_seconds = sweep.deadline_seconds;
              job.input.method = method;
              job.input.basis = basis;
              job.input.task = sweep.task;
              job.input.eps_schwarz = sweep.eps_schwarz;
              job.input.md_steps = sweep.md_steps;
              job.input.md_timestep_fs = sweep.md_timestep_fs;
              job.input.md_temperature_k = sweep.md_temperature_k;
              job.input.grid_radial = sweep.grid_radial;
              job.input.grid_angular = sweep.grid_angular;
              job.input.fault = sweep.fault;
              job.input.charge = cluster.charge();
              // Smallest consistent spin state: singlet for even
              // electron counts, doublet for odd.
              job.input.multiplicity =
                  cluster.num_electrons() % 2 == 0 ? 1 : 2;
              job.input.molecule = cluster;
              jobs.push_back(std::move(job));
            }
          }
        }
      }
    }
  }
  return jobs;
}

}  // namespace mthfx::engine
