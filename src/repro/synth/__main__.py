"""Differential fuzzing CLI.

::

    python -m repro.synth --domains hospital,ontology --seeds 0-9 \\
        --statements 40 --configs reference,planner-rules,server \\
        --corpus-dir tests/differential/corpus --artifact-dir out/

    python -m repro.synth --chaos --fault-seeds 0-24 --chaos-rate 0.15

``--chaos`` switches to the wire-fault leg: every program replays over
a seeded faulty socket (drops, truncations, corruption, swallowed
replies, resets) against a fault-free oracle; the fingerprint check
proves every client-acknowledged committed DML applied exactly once.

Exit status is non-zero when any (domain, seed) cell diverges; each
divergence is ddmin-minimized and written as a JSON counterexample that
``tests/differential/test_corpus.py`` replays as a pinned regression.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.synth.differential import (
    CONFIGS, DEFAULT_CONFIGS, case_payload, minimize, run_differential,
    save_case,
)
from repro.synth.domains import DOMAINS


def _parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part[1:]:
            low, _, high = part.partition("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.synth",
        description="cross-engine differential fuzzing over synthetic "
                    "domains")
    parser.add_argument("--domains", default="hospital,logistics,ontology",
                        help="comma-separated domain names "
                             f"(known: {', '.join(sorted(DOMAINS))})")
    parser.add_argument("--seeds", default="0-2",
                        help="comma/range list, e.g. 0-9 or 3,5,8")
    parser.add_argument("--statements", type=int, default=30,
                        help="program length per (domain, seed)")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--adversarial", action="store_true",
                        help="adversarial value distributions (band-edge "
                             "mass, label noise)")
    parser.add_argument("--configs", default=",".join(DEFAULT_CONFIGS),
                        help="engine configurations; first is baseline "
                             f"(known: {', '.join(sorted(CONFIGS))})")
    parser.add_argument("--corpus-dir", default=None,
                        help="write minimized counterexamples here")
    parser.add_argument("--no-minimize", action="store_true",
                        help="report divergences without ddmin")
    parser.add_argument("--chaos", action="store_true",
                        help="run the wire-fault chaos leg instead of "
                             "the engine matrix")
    parser.add_argument("--fault-seeds", default="0-24",
                        help="chaos fault-schedule seeds per (domain, "
                             "seed) cell (same spec syntax as --seeds)")
    parser.add_argument("--chaos-rate", type=float, default=0.15,
                        help="total per-frame fault probability for "
                             "the chaos leg's mixed schedule")
    args = parser.parse_args(argv)

    domains = [name.strip() for name in args.domains.split(",")]
    configs = tuple(name.strip() for name in args.configs.split(","))
    for name in configs:
        if name not in CONFIGS:
            parser.error(f"unknown config {name!r}")
    for name in domains:
        if name not in DOMAINS:
            parser.error(f"unknown domain {name!r}")
    seeds = _parse_seeds(args.seeds)

    if args.chaos:
        return _run_chaos_matrix(args, domains, seeds)

    failures = 0
    for domain in domains:
        for seed in seeds:
            report = run_differential(
                domain, seed, n_statements=args.statements,
                scale=args.scale, adversarial=args.adversarial,
                configs=configs)
            print(report.render())
            if report.ok:
                continue
            failures += 1
            if args.no_minimize:
                continue
            core = minimize(domain, seed, report.statements,
                            configs=configs, scale=args.scale,
                            adversarial=args.adversarial)
            print(f"  minimized to {len(core)} statement(s):")
            for statement in core:
                print(f"    {statement.sql}")
            if args.corpus_dir:
                payload = case_payload(
                    domain, seed, core, configs=configs,
                    scale=args.scale, adversarial=args.adversarial,
                    note="auto-minimized by python -m repro.synth")
                path = os.path.join(
                    args.corpus_dir,
                    f"auto_{domain}_{seed}_"
                    f"{payload['fingerprint'][:10]}.json")
                save_case(path, payload)
                print(f"  counterexample written to {path}")
    total = len(domains) * len(seeds)
    print(f"{total - failures}/{total} cells agree across "
          f"{len(configs)} configs")
    return 1 if failures else 0


def _run_chaos_matrix(args, domains: list[str],
                      seeds: list[int]) -> int:
    from repro.synth.chaos import (
        chaos_case_payload, minimize_chaos, run_chaos,
    )
    fault_seeds = _parse_seeds(args.fault_seeds)
    failures = 0
    cells = 0
    for domain in domains:
        for seed in seeds:
            for fault_seed in fault_seeds:
                cells += 1
                report = run_chaos(
                    domain, seed, fault_seed=fault_seed,
                    rate=args.chaos_rate,
                    n_statements=args.statements, scale=args.scale,
                    adversarial=args.adversarial)
                label = (f"[{domain} seed={seed} "
                         f"fault_seed={fault_seed}]")
                if report.ok:
                    print(f"{label} {len(report.statements)} "
                          f"statements through chaos: exactly-once "
                          f"holds")
                    continue
                failures += 1
                print(report.render())
                if args.no_minimize:
                    continue
                core = minimize_chaos(
                    domain, seed, report.statements,
                    fault_seed=fault_seed, rate=args.chaos_rate,
                    scale=args.scale, adversarial=args.adversarial)
                print(f"  minimized to {len(core)} statement(s):")
                for statement in core:
                    print(f"    {statement.sql}")
                if args.corpus_dir:
                    payload = chaos_case_payload(
                        case_payload(
                            domain, seed, core, configs=("server",),
                            scale=args.scale,
                            adversarial=args.adversarial,
                            note="auto-minimized chaos leg"),
                        fault_seed=fault_seed, rate=args.chaos_rate)
                    path = os.path.join(
                        args.corpus_dir,
                        f"chaos_{domain}_{seed}_{fault_seed}_"
                        f"{payload['fingerprint'][:10]}.json")
                    save_case(path, payload)
                    print(f"  counterexample written to {path}")
    print(f"{cells - failures}/{cells} chaos cells hold exactly-once "
          f"at rate {args.chaos_rate:g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
