"""Command-line front end: stability indices and report generation.

Every subcommand emits a single JSON document (CSV is available for
spectrum tables) embedding the parsed configuration and the library
version, so runs are reproducible from the report alone.
"""

import argparse
import csv
import io
import json
import sys
import time

from . import __version__, closedform, fem, paperlab, rotational, spectral
from .errors import (InvalidParameterError, MeshFormatError, MhsError,
                     NoSolutionError)
from .geometry import clifford

# reported as "error:" lines with exit code 1; OSError covers a missing
# input file or an output path in a missing directory
_USAGE_ERRORS = (InvalidParameterError, MeshFormatError, NoSolutionError,
                 OSError)


def _add_family_args(parser):
    parser.add_argument("--family", required=True,
                        choices=["clifford", "equator", "otsuki"])
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--res", type=int, default=64,
                        help="grid resolution (torus side / icosphere "
                             "subdivisions)")
    parser.add_argument("--nt", type=int, default=None,
                        help="override profile-direction resolution")
    parser.add_argument("--nphi", type=int, default=None,
                        help="override rotation-direction resolution")


def _build_mesh(args):
    """Mesh for the requested family at the requested resolution."""
    if args.n != 2:
        raise InvalidParameterError(
            "meshes are only available for surfaces in S^3 (n = 2)")
    if args.family == "equator":
        return fem.mesh_sphere(args.res)
    nphi = args.nphi or args.res
    if args.family == "clifford":
        nt = args.nt or args.res
        fam = clifford(2, args.k)
    else:
        nt = args.nt or 4 * args.res
        profile = rotational.find_otsuki(args.p, args.q)
        fam = rotational.build_surface(profile, nt, nphi)
    return fem.mesh_torus(fam, nt, nphi)


def _emit(args, config, report, csv_rows=None):
    doc = {"version": __version__,
           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
           "config": config,
           "report": report}
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_dict(args):
    skip = {"func", "output"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_oracle(args):
    if args.kind == "clifford":
        table, index, nullity = closedform.clifford_jacobi(
            args.n, args.k, args.cutoff)
    else:
        table, index, nullity = closedform.equator_jacobi(args.n, args.cutoff)
    report = {"spectrum": table.to_dict(), "index": index,
              "nullity": nullity}
    rows = [["eigenvalue", "multiplicity"]] + [
        [float(e), int(m)] for e, m in table.entries]
    _emit(args, _config_dict(args), report, csv_rows=rows)
    return 0


def cmd_family(args):
    profile = rotational.find_otsuki(args.p, args.q)
    _emit(args, _config_dict(args), profile.to_dict())
    return 0


def cmd_spectrum(args):
    mesh = _build_mesh(args)
    ops = fem.assemble(mesh)
    report = spectral.lowest_eigs(ops, args.count, args.zero_tol)
    doc = report.to_dict()
    doc["mesh"] = {"name": mesh.name, "vertices": mesh.num_vertices,
                   "area": mesh.area}
    rows = [["i", "eigenvalue"]] + [
        [i, float(v)] for i, v in enumerate(report.eigenvalues)]
    _emit(args, _config_dict(args), doc, csv_rows=rows)
    return 0


def cmd_paper_check(args):
    mesh = _build_mesh(args)
    ops = fem.assemble(mesh)
    span = paperlab.trial_span(mesh, ops)
    rank, verdict, _ = paperlab.lemma_check(span)
    theorem = paperlab.theorem_check(span, args.delta1)
    records, _ = paperlab.chain_sweep(span, draws=args.draws, seed=args.seed)
    worst_id = max(r.residual_identity / r.scale for r in records)
    conjecture, flag = paperlab.conjecture_probe(mesh, ops)
    identities = paperlab.gauss_identities(mesh)
    report = {
        "lemma": {"rank": rank, "verdict": verdict,
                  "expected_full_rank": 2 * mesh.surface_dim + 5},
        "theorem": theorem.to_dict(),
        "chain": {"draws": args.draws, "seed": args.seed,
                  "lambda1": span.lam1,
                  "max_identity_residual": worst_id,
                  "records": [r.to_dict() for r in records[:5]]},
        "conjecture": {**conjecture.to_dict(),
                       "negative_subspace_reaches_n_plus_4": flag},
        "identities": identities.to_dict(),
        "ratio": paperlab.ratio_report(mesh),
        "mesh": {"name": mesh.name, "vertices": mesh.num_vertices,
                 "area": mesh.area},
    }
    _emit(args, _config_dict(args), report)
    return 0


def cmd_chain(args):
    mesh = _build_mesh(args)
    ops = fem.assemble(mesh)
    records, params = paperlab.chain_sweep(paperlab.trial_span(mesh, ops),
                                           draws=args.draws, seed=args.seed)
    report = {"draws": [dict(p, **r.to_dict())
                        for p, r in zip(params, records)],
              "max_identity_residual": max(
                  r.residual_identity / r.scale for r in records)}
    _emit(args, _config_dict(args), report)
    return 0


def cmd_conjecture(args):
    mesh = _build_mesh(args)
    ops = fem.assemble(mesh)
    report, flag = paperlab.conjecture_probe(mesh, ops, args.rank_tol)
    doc = {**report.to_dict(),
           "negative_subspace_reaches_n_plus_4": flag}
    _emit(args, _config_dict(args), doc)
    return 0


def cmd_mesh_export(args):
    mesh = _build_mesh(args)
    fem.save_mesh(mesh, args.output)
    summary = {"written": args.output, "vertices": mesh.num_vertices,
               "triangles": mesh.num_triangles, "area": mesh.area}
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_mesh_import(args):
    mesh = fem.load_mesh(args.input)
    ops = fem.assemble(mesh)
    report = spectral.lowest_eigs(ops, min(args.count, ops.size),
                                  args.zero_tol)
    doc = {"mesh": {"name": args.input, "vertices": mesh.num_vertices,
                    "triangles": mesh.num_triangles, "area": mesh.area,
                    "euler_characteristic": mesh.euler_characteristic,
                    "degraded_normals": mesh.degraded_normals},
           "spectrum": report.to_dict()}
    _emit(args, _config_dict(args), doc)
    return 0


# ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mhs",
        description="Stability indices of minimal hypersurfaces of spheres")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="closed-form stability spectra")
    p.add_argument("kind", choices=["clifford", "equator"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("family", help="generate a rotational profile")
    p.add_argument("kind", choices=["otsuki"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("spectrum", help="discrete stability spectrum")
    _add_family_args(p)
    p.add_argument("--count", type=int, default=12)
    p.add_argument("--zero-tol", dest="zero_tol", type=float, default=0.05)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("paper-check",
                       help="full trial-space verification report")
    _add_family_args(p)
    p.add_argument("--delta1", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_paper_check)

    p = sub.add_parser("chain", help="completed-square estimate draws")
    _add_family_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("conjecture",
                       help="negative inertia of the coordinate span")
    _add_family_args(p)
    p.add_argument("--rank-tol", dest="rank_tol", type=float, default=1e-8)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("mesh-export", help="write a mesh JSON file")
    _add_family_args(p)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_mesh_export)

    p = sub.add_parser("mesh-import",
                       help="load a mesh JSON file and report its spectrum")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--count", type=int, default=12)
    p.add_argument("--zero-tol", dest="zero_tol", type=float, default=0.05)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_mesh_import)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MhsError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
