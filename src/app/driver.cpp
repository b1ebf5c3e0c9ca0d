#include "app/driver.hpp"

#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "chem/basis.hpp"
#include "chem/elements.hpp"
#include "fault/checkpoint.hpp"
#include "md/integrator.hpp"
#include "scf/gradient.hpp"
#include "scf/properties.hpp"
#include "scf/rhf.hpp"
#include "scf/rks.hpp"
#include "scf/uks.hpp"

namespace mthfx::app {

namespace {

bool wants_unrestricted(const Input& input) {
  if (input.reference == Reference::kRestricted) return false;
  if (input.reference == Reference::kUnrestricted) return true;
  return input.multiplicity != 1 || input.molecule.num_electrons() % 2 != 0;
}

hfx::SparsityMode sparsity_mode(const Input& input) {
  if (input.sparsity == "dense") return hfx::SparsityMode::kDense;
  if (input.sparsity == "blocked") return hfx::SparsityMode::kBlocked;
  return hfx::SparsityMode::kAuto;
}

void print_geometry(std::ostringstream& out, const chem::Molecule& mol) {
  out << "geometry (" << mol.size() << " atoms, charge " << mol.charge()
      << ", " << mol.num_electrons() << " electrons):\n";
  for (const auto& a : mol.atoms())
    out << "  " << chem::element_symbol(a.z) << "  " << a.pos.x << " "
        << a.pos.y << " " << a.pos.z << "  (bohr)\n";
}

}  // namespace

StructuredResult run_structured(const Input& input) {
  StructuredResult result;
  std::ostringstream out;
  out.precision(10);

  const auto& mol = input.molecule;
  const auto basis = chem::BasisSet::build(mol, input.basis);
  print_geometry(out, mol);
  out << "basis " << input.basis << ": " << basis.num_functions()
      << " AOs in " << basis.num_shells() << " shells\n";
  const bool open_shell = wants_unrestricted(input);

  // Resilience wiring: restore point, checkpoint sinks, fault injection.
  std::shared_ptr<const fault::ScfCheckpoint> scf_resume;
  std::shared_ptr<const fault::MdCheckpoint> md_resume;
  if (!input.restore_path.empty()) {
    const obs::Json ckpt_json =
        fault::load_checkpoint_json(input.restore_path);
    const std::string kind = fault::checkpoint_kind(ckpt_json);
    if (kind == "scf") {
      if (input.task == Task::kMd)
        throw std::runtime_error(
            "restore: SCF checkpoint cannot resume an md task");
      scf_resume = std::make_shared<fault::ScfCheckpoint>(
          fault::scf_checkpoint_from_json(ckpt_json));
      out << "restoring SCF state from " << input.restore_path
          << " (iteration " << scf_resume->iteration << ")\n";
    } else if (kind == "md") {
      if (input.task != Task::kMd)
        throw std::runtime_error(
            "restore: MD checkpoint requires task md");
      md_resume = std::make_shared<fault::MdCheckpoint>(
          fault::md_checkpoint_from_json(ckpt_json));
      out << "restoring MD state from " << input.restore_path << " (frame "
          << md_resume->frame_index << ")\n";
    } else {
      throw std::runtime_error("restore: unrecognized checkpoint kind in " +
                               input.restore_path);
    }
  }
  std::function<void(const fault::ScfCheckpoint&)> scf_sink;
  std::function<void(const fault::MdCheckpoint&)> md_sink;
  if (!input.checkpoint_path.empty()) {
    if (input.task == Task::kMd)
      md_sink = [path = input.checkpoint_path](const fault::MdCheckpoint& c) {
        fault::save_checkpoint(path, c);
      };
    else
      scf_sink = [path = input.checkpoint_path](
                     const fault::ScfCheckpoint& c) {
        fault::save_checkpoint(path, c);
      };
  }
  if (input.fault.enabled()) {
    input.fault.validate();
    out << "fault injection: fail=" << input.fault.fail_rate
        << " stall=" << input.fault.stall_rate
        << " corrupt=" << input.fault.corrupt_rate
        << " seed=" << input.fault.seed
        << " retries=" << input.fault.max_retries << "\n";
  }
  out << "method " << input.method << ", task ";

  if (input.task == Task::kEnergy || input.task == Task::kGradient) {
    out << (input.task == Task::kEnergy ? "energy" : "gradient") << "\n\n";

    if (open_shell) {
      scf::UksOptions opts;
      opts.functional = input.method;
      opts.scf.hfx.eps_schwarz = input.eps_schwarz;
      opts.scf.hfx.num_threads = input.num_threads;
      opts.scf.hfx.sparsity.mode = sparsity_mode(input);
      opts.scf.hfx.fault = input.fault;
      opts.scf.hfx.validate_tasks = input.fault.enabled();
      opts.scf.resume = scf_resume;
      opts.scf.checkpoint_sink = scf_sink;
      opts.scf.cancel = input.cancel;
      opts.grid.radial_points = input.grid_radial;
      opts.grid.angular_points = input.grid_angular;
      const auto r = scf::uks(mol, basis, input.multiplicity, opts);
      result.ok = r.scf.converged;
      result.converged = r.scf.converged;
      result.reference = "uks";
      result.energy = r.scf.energy;
      result.scf_iterations = r.scf.iterations;
      result.xc_energy = r.xc_energy;
      result.exact_exchange_energy = r.exact_exchange_energy;
      out << "UKS(" << input.method << ") energy: " << r.scf.energy
          << " Ha  (converged=" << r.scf.converged << ", iterations "
          << r.scf.iterations << ")\n";
      if (input.method != "hf")
        out << "  E_xc = " << r.xc_energy
            << " Ha, exact exchange = " << r.exact_exchange_energy << " Ha\n";
      if (input.task == Task::kGradient)
        out << "  [gradient for unrestricted references is not implemented; "
               "use task energy]\n";
    } else {
      scf::KsOptions opts;
      opts.functional = input.method;
      opts.scf.hfx.eps_schwarz = input.eps_schwarz;
      opts.scf.hfx.num_threads = input.num_threads;
      opts.scf.hfx.sparsity.mode = sparsity_mode(input);
      opts.scf.hfx.fault = input.fault;
      opts.scf.hfx.validate_tasks = input.fault.enabled();
      opts.scf.resume = scf_resume;
      opts.scf.checkpoint_sink = scf_sink;
      opts.scf.cancel = input.cancel;
      opts.grid.radial_points = input.grid_radial;
      opts.grid.angular_points = input.grid_angular;
      // A KS gradient runs on the solve's pair list, pool and grid: one
      // of each per task, as on the MD surface.
      std::optional<hfx::FockBuilder> builder;
      std::optional<scf::KsGrid> grid;
      if (input.task == Task::kGradient && input.method != "hf") {
        opts.scf.shared_builder = &builder.emplace(basis, opts.scf.hfx);
        opts.shared_grid = &scf::grid_for(mol, basis, opts, grid);
      }
      const auto r = scf::rks(mol, basis, opts);
      result.ok = r.scf.converged;
      result.converged = r.scf.converged;
      result.reference = "rks";
      result.energy = r.scf.energy;
      result.scf_iterations = r.scf.iterations;
      result.xc_energy = r.xc_energy;
      result.exact_exchange_energy = r.exact_exchange_energy;
      out << "SCF(" << input.method << ") energy: " << r.scf.energy
          << " Ha  (converged=" << r.scf.converged << ", iterations "
          << r.scf.iterations << ")\n";
      result.homo_lumo_gap_ev =
          scf::homo_lumo_gap(r.scf, mol) * chem::kEvPerHartree;
      out << "  HOMO-LUMO gap: " << result.homo_lumo_gap_ev << " eV\n";
      if (r.scf.converged) {
        result.dipole_debye =
            scf::dipole_moment_debye(mol, basis, r.scf.density);
        out << "  dipole moment: " << result.dipole_debye << " D\n";
      }
      if (input.task == Task::kGradient && r.scf.converged) {
        // "hf" is the ax = 1, no-XC case of the same gradient, taken
        // through rhf_gradient so every HF gradient screens its
        // derivative integrals at the same threshold.
        const std::vector<chem::Vec3> g =
            input.method == "hf" ? scf::rhf_gradient(mol, basis, r.scf)
                                 : scf::ks_gradient(mol, basis, opts, r);
        result.gradient = g;
        out << "  gradient (Ha/bohr):\n";
        for (std::size_t i = 0; i < g.size(); ++i)
          out << "    " << chem::element_symbol(mol.atom(i).z) << "  "
              << g[i].x << " " << g[i].y << " " << g[i].z << "\n";
      }
    }
  } else {  // Task::kMd
    out << "md\n\n";
    if (open_shell) {
      out << "[BOMD supports closed-shell references only]\n";
      result.ok = false;
      result.reference = "bomd";
      result.report = out.str();
      return result;
    }
    scf::KsOptions ks;
    ks.functional = input.method;
    ks.scf.hfx.eps_schwarz = input.eps_schwarz;
    ks.scf.hfx.num_threads = input.num_threads;
    ks.scf.hfx.sparsity.mode = sparsity_mode(input);
    ks.scf.hfx.fault = input.fault;
    ks.scf.hfx.validate_tasks = input.fault.enabled();
    ks.scf.cancel = input.cancel;
    ks.grid.radial_points = input.grid_radial;
    ks.grid.angular_points = input.grid_angular;
    md::ScfPotential surface(input.basis, ks);

    md::MdOptions opts;
    opts.timestep_fs = input.md_timestep_fs;
    opts.num_steps = input.md_steps;
    opts.target_temperature_k = input.md_temperature_k;
    opts.initial_temperature_k = input.md_temperature_k;
    opts.resume = md_resume;
    opts.checkpoint_sink = md_sink;

    out << "BOMD: " << opts.num_steps << " steps of " << opts.timestep_fs
        << " fs on the " << input.method << " surface\n";
    out << "t/fs      E_total/Ha        T/K\n";
    const auto traj = md::run_bomd(mol, surface, opts,
                                   [&out](const md::MdFrame& f) {
                                     out << f.time_fs << "    " << f.total
                                         << "    " << f.temperature_k << "\n";
                                   });
    out << "max |energy drift|: " << traj.max_energy_drift() << " Ha\n";
    result.ok = true;
    result.converged = true;
    result.reference = "bomd";
    result.energy = traj.frames.back().total;
    result.md_frames = traj.frames.size();
    result.md_max_energy_drift = traj.max_energy_drift();
  }

  result.report = out.str();
  return result;
}

RunResult run(const Input& input) {
  StructuredResult r = run_structured(input);
  return {r.ok, r.energy, std::move(r.report)};
}

}  // namespace mthfx::app
