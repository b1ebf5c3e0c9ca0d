#pragma once

// Declarative campaign specs for the screening engine: a campaign file
// describes engine settings plus one or more sweep blocks; each sweep is
// a cross product molecule x lattice size x basis x method that expands
// into Jobs (clusters built with workload::cluster_of). Grammar (full
// reference in docs/engine.md):
//
//   # engine settings (each keyword at most once)
//   concurrency 4
//   queue_capacity 256       # backlog cap; a full backlog sheds
//                            # lower-priority work or rejects
//   total_threads 0          # shared budget; 0 = hardware
//   job_retries 1
//   cache on                 # on | off
//   checkpoint_dir ckpts     # optional per-job checkpoint directory
//   journal campaign.wal     # write-ahead job journal (crash recovery)
//   store_dir store          # disk-backed ResultStore directory
//   store_max_bytes 1000000  # LRU-evict the store above this (0 = off)
//   deadline 30              # default per-job deadline, seconds (0 = off)
//   degrade_depth 0          # coarsen DFT grids at this queue depth
//   backoff_base_ms 10       # retry backoff: base delay
//   backoff_max_ms 1000      #   exponential cap
//   backoff_jitter 0.5       #   jittered fraction, [0, 1]
//   backoff_seed 0           #   deterministic jitter seed
//
//   sweep                    # one or more blocks
//     molecules pc dmso      # workload::by_name names
//     sizes 1 2              # molecules per cluster (cluster_of)
//     bases sto-3g
//     methods hf pbe0
//     spacing 9.0            # lattice spacing (bohr)
//     task energy            # energy | gradient | md
//     eps_schwarz 1e-8
//     md_steps 5             # md task only
//     md_timestep_fs 0.2
//     md_temperature_k 300
//     grid_radial 40
//     grid_angular 38
//     priority 0             # higher runs first
//     repeat 1               # submit the whole block this many times
//     deadline 10            # per-job deadline for this sweep (seconds)
//     fault_spec fail=0.01,seed=42
//   end
//
// '#' starts a comment anywhere. Duplicate keywords within a scope are
// rejected (same policy as the input-file parser).

#include <string>
#include <vector>

#include "engine/job.hpp"
#include "engine/scheduler.hpp"

namespace mthfx::engine {

/// One sweep block. Axes with several values multiply out; `repeat`
/// replays the whole expansion (duplicates exercise the ResultStore).
struct SweepSpec {
  std::vector<std::string> molecules{"water"};
  std::vector<int> sizes{1};
  std::vector<std::string> bases{"sto-3g"};
  std::vector<std::string> methods{"hf"};
  double spacing_bohr = 10.0;
  app::Task task = app::Task::kEnergy;
  double eps_schwarz = 1e-10;
  int md_steps = 10;
  double md_timestep_fs = 0.2;
  double md_temperature_k = 0.0;
  int grid_radial = 40;
  int grid_angular = 38;
  int priority = 0;
  int repeat = 1;
  /// Per-job wall-clock deadline for this sweep's jobs; 0 inherits the
  /// engine default.
  double deadline_seconds = 0.0;
  fault::FaultOptions fault;
};

struct CampaignSpec {
  EngineOptions engine;
  std::vector<SweepSpec> sweeps;

  /// Expand every sweep into jobs (submission order: sweeps in file
  /// order, repeats outermost within a sweep, then molecule, size,
  /// basis, method). Job names are "<molecule>.n<size>.<basis>.<method>"
  /// with "#r<k>" appended for repeats. Throws std::invalid_argument
  /// for unknown molecule names.
  std::vector<Job> expand() const;
};

/// Parse campaign text / file. Throws std::runtime_error with a
/// line-numbered message on malformed input.
CampaignSpec parse_campaign(const std::string& text);
CampaignSpec parse_campaign_file(const std::string& path);

}  // namespace mthfx::engine
