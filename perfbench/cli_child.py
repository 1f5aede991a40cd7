"""Run the ``airconsensus`` CLI once in this fresh interpreter, with or without tracing.

    python3 cli_child.py STATS_JSON TRACE -- <airconsensus arguments>

The only hook in an untraced run (TRACE = 0) notes the clock when
``parse_config`` returns, which ends set-up. A traced run (TRACE = 1)
also replaces every public function the benchmark measures, in every
module that imported it by name, with a wrapper that counts calls and
accumulates inclusive and child time; the originals are restored when
``main`` returns. STATS_JSON receives the set-up stamp, the span totals,
the exit code and the peak resident memory of this process.

Times are ``time.monotonic()``, a clock shared by all processes on the
host, so the parent can subtract its own launch stamp.
"""

import sys
import time


class Tracer:
    """Per-name call count, inclusive time and time spent in wrapped children.

    A call made while a span of the same name is open (a writer calling
    ``Path.write_text``) joins the open span rather than opening a new one.
    """

    def __init__(self):
        self.stats = {}
        self.children = []  # child time accumulated by each open span
        self.open = set()

    def wrap(self, name, fn, on_result=None):
        stats = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "child_s": 0.0, "items": 0})
        children, open_names = self.children, self.open

        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            open_names.add(name)
            children.append(0.0)
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.monotonic() - t0
                child = children.pop()
                open_names.discard(name)
                if children:
                    children[-1] += dt
                stats["calls"] += 1
                stats["total_s"] += dt
                stats["child_s"] += child
            if on_result is not None:
                stats["items"] += on_result(result)
            return result

        return wrapper


def patch(tracer, modules, name, fn, on_result=None):
    """Replace ``fn`` by its traced wrapper wherever one of ``modules`` binds it."""
    wrapper = tracer.wrap(name, fn, on_result)
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    return undo


def traced_spans(cli):
    """(span name, function, per-result item count) for each span a traced run records."""
    from airconsensus import analysis, channel, config, graph, linalg, protocol

    return [
        ("config.parse_config", config.parse_config, None),
        ("graph.is_strongly_connected", graph.is_strongly_connected, None),
        ("channel.sample", channel.sample, None),
        ("protocol.run", protocol.run, lambda trace: trace.steps),
        ("protocol.step_superposition", protocol.step_superposition, None),
        ("protocol.spread", protocol.spread, None),
        ("analysis.monte_carlo", analysis.monte_carlo, None),
        ("analysis.summarize_run", analysis.summarize_run, None),
        ("analysis.measure_rate", analysis.measure_rate, None),
        ("analysis.predicted_consensus", analysis.predicted_consensus, None),
        ("linalg.dominant_left_eigenvector", linalg.dominant_left_eigenvector, None),
        ("linalg.second_eigenvalue_modulus", linalg.second_eigenvalue_modulus, None),
        ("cli.write", cli._write_trace, None),
    ]


def peak_rss_kb():
    """High-water resident memory of this process image, in KiB.

    Read from ``VmHWM`` rather than ``ru_maxrss``: after an exec, Linux
    keeps in ``ru_maxrss`` the peak of the image it replaced, which for
    a child spawned with vfork is the parent's.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    stats_path, trace, sep, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py STATS_JSON TRACE -- <airconsensus arguments>")

    import json
    import pathlib

    import airconsensus
    from airconsensus import cli

    stamp = {}
    tracer = Tracer()
    undo = []
    main_fn = cli.main
    if trace:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "airconsensus"]
        for name, fn, on_result in traced_spans(cli):
            undo += patch(tracer, modules, name, fn, on_result)
        write_text = pathlib.Path.write_text
        pathlib.Path.write_text = tracer.wrap("cli.write", write_text)
        undo.append((pathlib.Path, "write_text", write_text))
        main_fn = tracer.wrap("cli.main", cli.main)
    parse = cli.parse_config

    def parse_and_stamp(doc):
        cfg = parse(doc)
        stamp["setup_end"] = time.monotonic()
        return cfg

    undo.append((cli, "parse_config", parse))
    cli.parse_config = parse_and_stamp
    try:
        code = main_fn(argv)
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    with open(stats_path, "w") as fh:
        json.dump(
            {
                "package": airconsensus.__file__,
                "exit_code": code,
                "setup_end": stamp.get("setup_end"),
                "peak_rss_kb": peak_rss_kb(),
                "spans": tracer.stats,
            },
            fh,
        )
    sys.exit(code)


if __name__ == "__main__":
    main()
