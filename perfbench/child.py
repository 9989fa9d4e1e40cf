"""One benchmark process: a set-up probe or one kolmobox CLI command.

Started by run.py in a fresh interpreter, so every measured command pays its
own interpreter start and imports, as a user's command does.

    python3 child.py setup RESULT CONFIG
        Time `import kolmobox` + config.load_config + config.build_problem.
    python3 child.py cli RESULT TRACE COMMAND --config CONFIG --out DIR
        Run kolmobox.cli.main on the remaining arguments.  With TRACE = 1 the
        package's public functions are first replaced by timing wrappers
        defined here, and every span is written to RESULT at exit.

RESULT receives one JSON object; the process exits with main's return code.
Nothing from kolmobox or numpy is imported before the timed region starts.
"""

import itertools
import json
import os
import resource
import sys
import threading
import time


class Tracer:
    """Records a span per wrapped call: id, name, start, end, parent, thread, ok, info.

    Spans stay in memory until `spans` is read at exit.  A call made from a
    thread with no open span (a worker of the CLI's refinement pool) gets the
    main thread's innermost open span as its parent.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr, name, info=None):
        """Replace module.attr by a timing wrapper; `info(args, result)` annotates the span."""
        fn = getattr(module, attr)
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(ids)
            stack.append(sid)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                extra = info(args, result) if ok and info else None
                spans.append((sid, name, t0, t1, parent, threading.get_ident(), ok, extra))
            return result

        setattr(module, attr, wrapper)


# The package passes these arguments positionally.
def _step_info(args, result):
    state, dt = args[0], args[1]
    return [state.grid.npoints, dt, result.guard_hits]


def _rhs_info(args, result):
    return args[0].grid.npoints


def _snapshot_info(args, result):
    return os.path.getsize(args[0])


FIELDS_TRACED = (
    "leray_project",
    "sym_gradient",
    "div_flux",
    "div_tensor_flux",
    "advect",
    "advect_vec",
    "r_laplacian",
    "r_laplacian_vec",
    "max_face_gradient",
    "frobenius_sq",
)


def install(tracer):
    """Wrap the public functions of every measured layer.

    `cli` binds load_config and build_problem by name, so they are wrapped on
    `kolmobox.cli`; the other layers call each other through module
    attributes, so wrapping the defining module reaches every caller.
    """
    from kolmobox import cli, diagnostics, fields, model, snapshot, timestepper

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(cli, "build_problem", "config.build_problem")
    tracer.wrap(timestepper, "run", "timestepper.run")
    tracer.wrap(timestepper, "step_explicit", "timestepper.step", _step_info)
    tracer.wrap(timestepper, "step_rothe", "timestepper.step", _step_info)
    tracer.wrap(timestepper, "cfl_dt", "timestepper.cfl_dt")
    tracer.wrap(timestepper, "operator_apply", "timestepper.operator_apply")
    tracer.wrap(model, "rhs", "model.rhs", _rhs_info)
    for fn in FIELDS_TRACED:
        tracer.wrap(fields, fn, f"fields.{fn}")
    tracer.wrap(diagnostics, "record", "diagnostics.record")
    tracer.wrap(diagnostics, "decay_fit", "diagnostics.decay_fit")
    tracer.wrap(snapshot, "write_snapshot", "snapshot.write_snapshot", _snapshot_info)


def _environment():
    return {
        "kolmobox": sys.modules["kolmobox"].__file__,
        "numpy": sys.modules["numpy"].__version__,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def setup_probe(result_path, config_path):
    t0 = time.perf_counter()
    import kolmobox  # noqa: F401  (the import is part of what is timed)
    from kolmobox import config

    config.build_problem(config.load_config(config_path))
    setup_s = time.perf_counter() - t0
    _write(result_path, {"setup_s": setup_s, **_environment()})
    return 0


def cli_command(result_path, trace, argv):
    from kolmobox import cli

    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    code = cli.main(argv)
    payload = _environment()
    if tracer is not None:
        payload["spans"] = tracer.spans
    _write(result_path, payload)
    return code


if __name__ == "__main__":
    mode, result = sys.argv[1], sys.argv[2]
    if mode == "setup":
        sys.exit(setup_probe(result, sys.argv[3]))
    sys.exit(cli_command(result, sys.argv[3] == "1", sys.argv[4:]))
