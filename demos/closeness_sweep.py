"""First-order closeness of full and averaged dynamics.

Runs the epsilon sweeps of the shipped pendulum and particle configs
as `fastslow verify pendulum` and `fastslow verify particle` do: one
averaged run (experiments._averaged_run) over one slow time unit, which
holds no eps, and for each epsilon of a config's epsilon_sweep one run
of the fast-oscillating system (experiments._full_run) over the same
slow time. The sup distance between the two trajectories should drop by
a factor close to 2 per halving of eps, the signature of an O(eps)
estimate; the ratio is the previous row's sup error over this row's,
as that sweep forms it.
"""

from fastslow.cli import parse_config, shipped_config_text
from fastslow.experiments import TABLE, _averaged_run, _full_run
from fastslow.integrators import closeness_report


def main():
    for name in ("pendulum", "particle"):
        config = parse_config(shipped_config_text(name))
        print(f"{TABLE[name].summary}:")
        print(f"{'epsilon':>10}  {'sup error':>12}  {'ratio':>7}")
        reduced = _averaged_run(config)
        previous = None
        for eps in config.epsilon_sweep:
            error = closeness_report(_full_run(config, eps),
                                     reduced).sup_error_total
            ratio = "" if previous is None else f"{previous / error:7.3f}"
            print(f"{eps:10.1e}  {error:12.4e}  {ratio:>7}")
            previous = error
        print()


if __name__ == "__main__":
    main()
