"""One measured process: runs a job list through ``dominotowers.cli.main``.

    python3 child.py SRC_DIR                         set-up sample only
    python3 child.py SRC_DIR JOBS_JSON [SPANS_PATH]  run the jobs (traced
                                                     when SPANS_PATH is given)

Times are CPU seconds of this process (``time.process_time``): the package
is single-threaded and blocks on no I/O here, so its CPU time is its wall
time on an idle machine, while on a shared one it stays steady when other
processes take the CPU away.  Set-up time is the CPU time from interpreter
start until the package is imported and the argument parser is built;
nothing else is imported before that point.

The speed of the CPU itself still drifts on a shared host, so an untraced
run also times ``probe`` every PROBE_EVERY_S of wall time, inside jobs too, and
reports for each job the probe time that was current while it ran; the
parent rescales job times by it.  Output is JSON lines on the real stdout:
one per job, then one summary line.
"""

import os
import sys
import time

PROBE_EVERY_S = 0.1


def run_job(cli, argv: list[str]) -> tuple[object, float, float, str, str]:
    """Exit code, CPU and wall seconds, stdout and stderr of one CLI call."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = "exception"
        err.write(traceback.format_exc())
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    return code, cpu, wall, out.getvalue(), err.getvalue()


def probe() -> float:
    """CPU seconds of a fixed mix of dict, tuple, string and big-integer work.

    The benchmark's own code, so its time tracks the machine's speed at the
    moment and nothing the package does.
    """
    start = time.process_time()
    counts: dict = {}
    for i in range(1500):
        key = (i % 97, i * 7 % 89)
        counts[key] = counts.get(key, 0) + i
    text = " ".join(f"{a},{b}" for a, b in sorted(counts))
    value = len(text)
    for i in range(300):
        value = value * 3 + i
    return time.process_time() - start


class SpeedProbe:
    """Samples ``probe`` on a wall-clock timer while jobs run.  (A CPU-time
    timer would make the kernel report process CPU time in whole ticks.)"""

    def __init__(self) -> None:
        import signal

        self.samples = [probe() for _ in range(5)]
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)

    def since(self, first: int) -> tuple[float, float]:
        """CPU spent probing since sample ``first``, and the probe time then:
        the median of the samples taken meanwhile, or of the latest ones."""
        import statistics

        inside = self.samples[first:]
        recent = inside if len(inside) >= 5 else self.samples[-9:]
        return sum(inside), statistics.median(recent)


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    from dominotowers import cli

    cli.build_parser()
    setup_s = time.process_time()

    import json
    import resource
    import signal
    import statistics

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"imported {cli.__file__}, not the package under {src}", file=sys.stderr)
        return 3
    if len(sys.argv) == 2:
        speed = statistics.median(probe() for _ in range(5))
        print(json.dumps({"setup_s": setup_s, "speed": speed}))
        return 0
    with open(sys.argv[2], encoding="utf-8") as f:
        jobs = json.load(f)
    tracer = speed = None
    if len(sys.argv) > 3:
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
        job_span = tracer.intern("job")
        count_c_refills = []
    else:
        speed = SpeedProbe()
    for job_id, argv in enumerate(jobs):
        line = {"job": job_id}
        if tracer:
            tracer.job_id = job_id
            refills = tracer.counters["recurrences.refills"]
            sid = tracer.open(job_span)
            code, cpu, wall, out, err = run_job(cli, argv)
            tracer.close(sid)
            if argv[:2] == ["count", "c"]:
                count_c_refills.append(tracer.counters["recurrences.refills"] - refills)
        else:
            first = len(speed.samples)
            code, cpu, wall, out, err = run_job(cli, argv)
            line["probe_cpu"], line["speed"] = speed.since(first)
        line.update(code=code, cpu=cpu, wall=wall, out=out, err=err)
        # A probe signal landing in a blocked pipe write can lose bytes.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        print(json.dumps(line), flush=True)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    if speed:
        speed.stop()
    summary = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        layers = layer_metrics(tracer)
        layers["recurrences.count_c_job.refills_max"] = max(count_c_refills, default=0)
        layers["trace.top_level_s"] = tracer.stats("job")[1]
        summary["layers"] = layers
        tracer.write(sys.argv[3])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
