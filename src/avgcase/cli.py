"""Command-line front end: generate instances, run reductions, verify, and
compute the exact low-degree energy.

Reproducibility rules: ``generate`` and ``reduce`` refuse to run without
``--seed`` (no ambient entropy), and every command is a deterministic
function of its flags plus the seed, producing byte-identical artifacts on
rerun.  Configuration precedence is flags > ``AVGCASE_*`` environment
variables > defaults (``AVGCASE_OUT_DIR``).

Exit codes: 0 success / verification pass, 1 verification failure, 2 usage
or parameter error, 3 internal error (a fault in the program, not in its
input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import AvgCaseError, ParameterError


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_common(sub, seed_required=True):
    sub.add_argument("--seed", type=int, required=seed_required,
                     help="64-bit seed (required; there is no ambient entropy)")
    sub.add_argument("--out", default=os.environ.get("AVGCASE_OUT_DIR", "."),
                     help="output directory [env AVGCASE_OUT_DIR]")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="avgcase",
        description="Average-case reductions from planted graphs to sparse "
                    "mixtures, with statistical verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample an instance and write it to disk")
    gsub = gen.add_subparsers(dest="problem", required=True)

    g_gnq = gsub.add_parser("gnq", help="Erdos-Renyi G(n, q)")
    g_gnq.add_argument("--n", type=int, required=True)
    g_gnq.add_argument("--q", type=float, required=True)
    _add_common(g_gnq)

    g_kpds = gsub.add_parser("kpds", help="k-partite planted dense subgraph")
    g_kpds.add_argument("--n", type=int, required=True)
    g_kpds.add_argument("--k", type=int, required=True)
    g_kpds.add_argument("--p", type=float, required=True)
    g_kpds.add_argument("--q", type=float, required=True)
    _add_common(g_kpds)

    g_isgm = gsub.add_parser("isgm", help="imbalanced sparse Gaussian mixture")
    g_isgm.add_argument("--n", type=int, required=True)
    g_isgm.add_argument("--k", type=int, required=True)
    g_isgm.add_argument("--d", type=int, required=True)
    g_isgm.add_argument("--mu", type=float, required=True)
    g_isgm.add_argument("--eps", type=float, required=True)
    _add_common(g_isgm)

    g_tg = gsub.add_parser("tg", help="target graph laws of the community reduction")
    g_tg.add_argument("--variant", choices=["h0", "h1"], required=True)
    g_tg.add_argument("--n", type=int, required=True)
    g_tg.add_argument("--m", type=int, required=True)
    g_tg.add_argument("--mu1", type=float, required=True)
    g_tg.add_argument("--k", type=int)
    g_tg.add_argument("--k2", type=int)
    g_tg.add_argument("--mu2", type=float)
    g_tg.add_argument("--mu3", type=float)
    _add_common(g_tg)

    red = sub.add_parser("reduce", help="run a reduction pipeline on a graph file")
    rsub = red.add_subparsers(dest="pipeline", required=True)

    r_isgm = rsub.add_parser("isgm", help="k-PDS to sparse Gaussian mixture")
    r_isgm.add_argument("--in", dest="infile", required=True, help="GRAPHv1 input")
    r_isgm.add_argument("--trace", help="optional trace JSON of the input instance")
    r_isgm.add_argument("--k", type=int, required=True, help="parts in the promise partition")
    r_isgm.add_argument("--p", type=float, required=True)
    r_isgm.add_argument("--q", type=float, required=True)
    r_isgm.add_argument("--eps", type=float, help="target mixture weight (picks r)")
    r_isgm.add_argument("--r", type=int, help="explicit prime r (overrides --eps)")
    r_isgm.add_argument("--w", type=float, default=4.0, help="slow-growth factor")
    r_isgm.add_argument("--n", type=int, help="override planned sample count")
    r_isgm.add_argument("--d", type=int, help="override planned dimension")
    _add_common(r_isgm)

    r_semi = rsub.add_parser("semi-cr", help="k-PDS to semirandom community recovery")
    r_semi.add_argument("--in", dest="infile", required=True)
    r_semi.add_argument("--trace")
    r_semi.add_argument("--k", type=int, required=True)
    r_semi.add_argument("--p", type=float, required=True)
    r_semi.add_argument("--q", type=float, required=True)
    r_semi.add_argument("--ell", type=int, required=True, help="blowup factor")
    r_semi.add_argument("--n-out", type=int, help="output vertex count (default: embedded size)")
    _add_common(r_semi)

    r_glsm = rsub.add_parser("glsm", help="k-PDS to a general sparse mixture family")
    r_glsm.add_argument("--in", dest="infile", required=True)
    r_glsm.add_argument("--trace")
    r_glsm.add_argument("--k", type=int, required=True)
    r_glsm.add_argument("--p", type=float, required=True)
    r_glsm.add_argument("--q", type=float, required=True)
    r_glsm.add_argument("--n", type=int, required=True)
    r_glsm.add_argument("--d", type=int, required=True)
    r_glsm.add_argument("--tau", type=float, default=1.0, help="truncation threshold")
    r_glsm.add_argument("--theta", type=float, default=1e-5,
                        help="spike strength of the built-in Gaussian target family")
    r_glsm.add_argument("--w", type=float, default=2.0)
    _add_common(r_glsm)

    ver = sub.add_parser("verify", help="run a pipeline's statistical battery")
    ver.add_argument("--pipeline", choices=["isgm", "semi-cr", "glsm"], required=True)
    ver.add_argument("--params", default="{}", help="JSON dict of battery parameters")
    ver.add_argument("--trials", type=int, default=400)
    ver.add_argument("--alpha", type=float, default=1e-4)
    ver.add_argument("--fault", choices=["rotation"],
                     help="inject a known fault (isgm only); the verdict must flip to fail")
    _add_common(ver, seed_required=False)
    ver.set_defaults(seed=0)

    en = sub.add_parser("energy", help="exact low-degree energy, with and without "
                                       "the k-partite promise")
    en.add_argument("--n", type=int, required=True)
    en.add_argument("--k", type=int, required=True)
    en.add_argument("--degree", type=int, required=True)
    en.add_argument("--signal", default="pc", help="'pc' or 'pds:<p>'")
    return ap


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    from .formats import write_amat
    from .graphs import (PlantedTrace, sample_gnq, sample_k_pds, sample_tg_h0,
                         sample_tg_h1, write_graphv1)
    from .pipelines import sample_isgm
    from .prob import RngStream

    # each branch makes --out only once its sample is drawn: a refused run
    # leaves no directory
    rng = RngStream(args.seed)
    if args.problem == "gnq":
        G = sample_gnq(args.n, args.q, rng)
        out = _out_dir(args)
        write_graphv1(G, out / "instance.graph")
        trace = PlantedTrace(seed=args.seed, params={"problem": "gnq", "n": args.n, "q": args.q})
        trace.write_json(out / "trace.json")
        print(f"gnq: n={G.n} edges={G.edge_count} -> {out / 'instance.graph'}")
    elif args.problem == "kpds":
        G, trace = sample_k_pds(args.n, args.k, args.p, args.q, rng)
        trace.params.update({"problem": "kpds", "partition": "contiguous"})
        out = _out_dir(args)
        write_graphv1(G, out / "instance.graph")
        trace.write_json(out / "trace.json")
        print(
            f"kpds: n={G.n} k={args.k} edges={G.edge_count} "
            f"planted={list(map(int, trace.planted_set))} -> {out / 'instance.graph'}"
        )
    elif args.problem == "isgm":
        X, trace = sample_isgm(args.n, args.k, args.d, args.mu, args.eps, rng)
        out = _out_dir(args)
        write_amat(out / "samples.amat", X)
        trace.params["problem"] = "isgm"
        trace.write_json(out / "trace.json")
        print(f"isgm: n={X.shape[0]} d={X.shape[1]} k={args.k} -> {out / 'samples.amat'}")
    else:  # tg
        h1_only = ("k", "k2", "mu2", "mu3")
        if args.variant == "h0":
            given = [f for f in h1_only if getattr(args, f) is not None]
            if given:
                raise ParameterError(f"tg h0 takes no --{' --'.join(given)}; only h1 reads them")
            G, trace = sample_tg_h0(args.n, args.m, args.mu1, rng)
        else:
            missing = [f for f in h1_only if getattr(args, f) is None]
            if missing:
                raise ParameterError(f"tg h1 needs --{' --'.join(missing)}")
            G, trace = sample_tg_h1(args.n, args.k, args.k2, args.m,
                                    args.mu1, args.mu2, args.mu3, rng)
        trace.params["problem"] = f"tg-{args.variant}"
        out = _out_dir(args)
        write_graphv1(G, out / "instance.graph")
        trace.write_json(out / "trace.json")
        print(f"tg-{args.variant}: n={G.n} edges={G.edge_count} -> {out / 'instance.graph'}")
    return 0


def _cmd_reduce(args) -> int:
    from .formats import dump_json, write_amat
    from .graphs import PlantedTrace, read_graphv1, write_graphv1
    from .pipelines import (pds_to_glsm, pds_to_isgm, pds_to_semi_cr, plan_glsm,
                            plan_isgm, plan_semi_cr, spca_family)
    from .prob import RngStream

    # each branch makes --out only once its pipeline has returned: a refused
    # run leaves no directory
    G = read_graphv1(args.infile)
    trace = PlantedTrace.read_json(args.trace) if args.trace else None
    rng = RngStream(args.seed)

    if args.pipeline == "isgm":
        plan = plan_isgm(args.p, args.q, args.w, eps=args.eps, r=args.r, N=G.n,
                         k=args.k, n=args.n, d=args.d)
        X, out_trace = pds_to_isgm(G, plan, rng, trace=trace)
        out = _out_dir(args)
        write_amat(out / "samples.amat", X)
        out_trace.write_json(out / "trace.json")
        dump_json(out / "plan.json", plan.to_dict())
        print(
            f"isgm: r={plan.r} t={plan.t} m={plan.m} n={plan.n} d={plan.d} "
            f"mu={plan.mu:.4g} -> {out / 'samples.amat'}"
        )
    elif args.pipeline == "semi-cr":
        plan = plan_semi_cr(args.p, args.q, N=G.n, k=args.k, ell=args.ell, n=args.n_out)
        G_out, out_trace = pds_to_semi_cr(G, plan, rng, trace=trace)
        out = _out_dir(args)
        write_graphv1(G_out, out / "instance.graph")
        out_trace.write_json(out / "trace.json")
        dump_json(out / "plan.json", plan.to_dict())
        print(
            f"semi-cr: ell={plan.ell} m={plan.m} n={plan.n} "
            f"mu1={out_trace.params['mu1']:.4g} mu3={out_trace.params['mu3']:.4g} "
            f"-> {out / 'instance.graph'}"
        )
    else:  # glsm
        plan = plan_glsm(args.p, args.q, args.w, n=args.n, k=args.k, d=args.d)
        family, nu_sd = spca_family(args.n, args.k, args.theta)
        X, out_trace = pds_to_glsm(G, plan, args.tau, family, nu_sd, rng, trace=trace)
        out = _out_dir(args)
        write_amat(out / "samples.amat", X)
        out_trace.write_json(out / "trace.json")
        dump_json(out / "plan.json", plan.to_dict())
        print(f"glsm: n={args.n} d={X.shape[1]} tau={args.tau} -> {out / 'samples.amat'}")
    return 0


def _cmd_verify(args) -> int:
    from .formats import dump_json
    from .verify import verify_reduction

    if args.trials < 1:
        raise ParameterError(f"--trials must be at least 1, got {args.trials}")
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"--params is not valid JSON: {exc}") from None
    report = verify_reduction(args.pipeline, params, args.trials, args.alpha,
                              seed=args.seed, fault=args.fault)
    out = _out_dir(args)  # only now: a rejected run leaves no directory
    dump_json(out / "report.json", report)
    for t in report["tests"]:
        print(f"  [{t['status']:>12}] {t['name']}")
    print(f"verify {args.pipeline}: verdict={report['verdict']} -> {out / 'report.json'}")
    return 0 if report["verdict"] == "pass" else 1


def _cmd_energy(args) -> int:
    from .verify import low_degree_energy

    if args.signal == "pc":
        p = 1.0
    elif args.signal.startswith("pds:"):
        try:
            p = float(args.signal[4:])
        except ValueError:
            raise ParameterError(f"--signal pds:<p> needs a number p in [0, 1], "
                                 f"got {args.signal!r}") from None
    else:
        raise ParameterError(f"--signal must be 'pc' or 'pds:<p>', got {args.signal!r}")
    partite, plain = low_degree_energy(args.n, args.k, args.degree, p)
    print(f"energy(n={args.n}, k={args.k}, D={args.degree}, signal={args.signal}) = "
          f"{partite:.12g} (k-partite), {plain:.12g} (unconstrained)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_energy(args)
    except AvgCaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in the program, never a failed battery
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
