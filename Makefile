.PHONY: all build test test-release ci alloc-path-check trace-smoke multiproc-smoke perf-smoke perf-guard perfbench-check campaign-smoke domains-smoke slo-smoke control-smoke perf examples doc clean bench bench-full

# Worker processes for the experiment matrices; results are byte-identical
# whatever the fan-out (the simulation runs in virtual time).
JOBS ?= $(shell nproc)

all: build

build:
	dune build @all

test:
	dune runtest

# The whole suite again, compiled as the release build is, into its own
# build directory: the dev profile passes -opaque, which turns off the
# cross-module inlining that Heapsim.Object_table's unchecked row and
# slab accesses are written for.
test-release:
	DUNE_CACHE=disabled dune runtest --root . --profile release \
	  --build-dir .release_build

# Full CI gate: everything compiles (including examples and benches), every
# collector allocates through Gc_common.Alloc, the whole suite passes — test_faults runs the fault-plan smoke tests with
# fixed seeds, so regressions in the degradation paths fail here — and
# traced runs (one solo, one two-process) produce valid Chrome JSON
# covering every expected GC phase kind. The wall-clock perf-guard runs
# last: it depends on how busy the machine is, so a failure there must
# not hide the deterministic checks before it.
ci:
	dune build @all && $(MAKE) alloc-path-check && dune runtest && $(MAKE) trace-smoke && $(MAKE) multiproc-smoke && $(MAKE) perf-smoke && $(MAKE) perfbench-check && $(MAKE) test-release && $(MAKE) campaign-smoke && $(MAKE) domains-smoke && $(MAKE) slo-smoke && $(MAKE) control-smoke && $(MAKE) perf-guard

# One allocation path: Gc_common.Alloc is the only code that registers a new
# object, so a collector under lib/baselines or lib/core that calls
# Object_table.alloc itself fails here, named. grep exits 1 when nothing
# matches; any other status (a match, or grep's own error) fails the target.
alloc-path-check:
	@files=$$(grep -rlE --include='*.ml' 'Object_table\.alloc\b' lib/baselines lib/core); \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
	  echo "alloc-path-check: Object_table.alloc outside Gc_common.Alloc in:" $$files >&2; exit 1; \
	elif [ $$status -ne 1 ]; then \
	  echo "alloc-path-check: grep failed with status $$status" >&2; exit 1; \
	fi

# Trace smoke: a small pressured run known (deterministically) to exercise
# minor, full, compacting and every BC sub-phase; `bcgc trace` re-parses
# the emitted JSON and fails if any expected span kind is missing.
trace-smoke:
	./_build/default/bin/bcgc.exe run -c BC -w _201_compress \
	  --volume 0.1 --heap-kb 1536 --frames 500 --pin 250 \
	  --trace /tmp/bcgc-ci-trace.json
	./_build/default/bin/bcgc.exe trace /tmp/bcgc-ci-trace.json \
	  --expect-phases minor,full,compacting,mark,sweep,evacuate,bookmark-scan,reconcile

# Multiproc smoke: BC and a competing GenMS instance share one tight
# machine; the primary must still complete every phase kind, and the
# trace must carry the per-process progress counter.
multiproc-smoke:
	./_build/default/bin/bcgc.exe run -c BC --coworker GenMS -w _201_compress \
	  --volume 0.1 --heap-kb 1536 --frames 500 \
	  --trace /tmp/bcgc-ci-multiproc.json
	./_build/default/bin/bcgc.exe trace /tmp/bcgc-ci-multiproc.json \
	  --expect-phases minor,full,compacting,mark,sweep,evacuate,bookmark-scan,reconcile

# Perf smoke: one repetition of the wall-clock suite, written to /tmp and
# schema-validated by `bcgc bench perf` itself. Guards the benchmark
# plumbing, not the numbers — wall-clock throughput is machine-dependent.
perf-smoke:
	./_build/default/bin/bcgc.exe bench perf --perf-reps 1 \
	  --perf-out /tmp/bcgc-ci-perf.json

# Perf guard: re-run the suite and fail if any median regresses by more
# than 20% against the committed BENCH_perf.json baseline. Three
# repetitions keep the medians stable enough for a 20% band on a quiet
# machine; refresh the baseline with `make perf` after intended changes.
perf-guard:
	./_build/default/bin/bcgc.exe bench perf --guard --perf-reps 3

# Perfbench check: the host-time benchmark runs a release build, where
# cross-module inlining is on (the dev profile's -opaque turns it off), so
# build perfbench/main.exe the way perfbench/run.py does and require every
# cell's outcome digest to match perfbench/expected_digests.txt byte for
# byte. Only reads perfbench/.
perfbench-check:
	DUNE_CACHE=disabled dune build --root . --profile release \
	  --build-dir .bench_build ./perfbench/main.exe
	./.bench_build/default/perfbench/main.exe \
	  --write-expected /tmp/bcgc-ci-perfbench-digests.txt
	grep -v '^#' /tmp/bcgc-ci-perfbench-digests.txt > /tmp/bcgc-ci-perfbench-cells.txt
	grep -v '^#' perfbench/expected_digests.txt \
	  | diff - /tmp/bcgc-ci-perfbench-cells.txt

# Campaign smoke: interruption drill on the 8-cell example campaign.
# Run three cells and stop (exit 3), resume to completion, re-run the whole
# campaign uninterrupted on a second journal, and require the two
# consolidated reports to be byte-identical; then once more under
# chaos (workers randomly SIGKILLed), same requirement.
campaign-smoke:
	rm -f /tmp/bcgc-ci-campaign.journal* /tmp/bcgc-ci-campaign-fresh.journal* /tmp/bcgc-ci-campaign-chaos.journal*
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 2 --journal /tmp/bcgc-ci-campaign.journal --stop-after 3; test $$? -eq 3
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 2 --journal /tmp/bcgc-ci-campaign.journal --resume
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 4 --journal /tmp/bcgc-ci-campaign-fresh.journal
	cmp /tmp/bcgc-ci-campaign.journal.report.json /tmp/bcgc-ci-campaign-fresh.journal.report.json
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 3 --journal /tmp/bcgc-ci-campaign-chaos.journal --chaos kill-workers --chaos-seed 11
	cmp /tmp/bcgc-ci-campaign.journal.report.json /tmp/bcgc-ci-campaign-chaos.journal.report.json

# Domains smoke: the same example campaign on the fork backend and on the
# shared-memory domain pool, in separate process invocations (Unix.fork is
# permanently refused once a domain has been spawned, so the two engines
# cannot share a process in that order). The consolidated reports must be
# byte-identical; jobs exceed the 8 cells to exercise the clamp.
domains-smoke:
	rm -f /tmp/bcgc-ci-domains-fork.journal* /tmp/bcgc-ci-domains-pool.journal*
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 4 --backend fork --journal /tmp/bcgc-ci-domains-fork.journal
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 4 --backend domains --journal /tmp/bcgc-ci-domains-pool.journal
	cmp /tmp/bcgc-ci-domains-fork.journal.report.json /tmp/bcgc-ci-domains-pool.journal.report.json

# SLO smoke: the quick request-serving matrix (shaped + flash load, three
# collectors). `bench slo` self-validates the written report against the
# bcgc-slo-report/1 schema (every cell's slo summary must round-trip)
# before the file lands; the greps assert the percentile columns reached
# the table and the schema tag reached the file.
slo-smoke:
	./_build/default/bin/bcgc.exe bench slo \
	  --slo-out /tmp/bcgc-ci-slo.json | tee /tmp/bcgc-ci-slo.txt
	grep -q "p999(ms)" /tmp/bcgc-ci-slo.txt
	grep -q "bcgc-slo-report/1" /tmp/bcgc-ci-slo.json

# Control smoke: the threshold controller's staged-degradation FSM across
# two fault plans, 1 ms decision windows. Deterministic per seed+plan. On
# the benign plan (lossy notices under steady pressure) the ladder may
# reach Pressure but must never touch Failsafe; on the spike plan (three
# 256-page transient bursts on tight frames) the run must degrade AND
# recover — end in Normal with no forced failsafe collections.
control-smoke:
	./_build/default/bin/bcgc.exe run -c BC -w _202_jess --volume 0.36 \
	  --heap-kb 3072 --frames 960 --pin 307 --controller threshold \
	  --control-window 1 --faults 'drop-evict=0.1,delay=0.05' \
	  | tee /tmp/bcgc-ci-control-benign.txt
	grep -q "control: threshold" /tmp/bcgc-ci-control-benign.txt
	! grep -E "peak=failsafe|forced-failsafes=[1-9]" /tmp/bcgc-ci-control-benign.txt
	./_build/default/bin/bcgc.exe run -c BC -w _202_jess --volume 0.36 \
	  --heap-kb 3072 --frames 960 --controller threshold \
	  --control-window 1 --faults 'drop-evict=0.3,spikes=3,spike-pages=256' \
	  | tee /tmp/bcgc-ci-control-spike.txt
	grep -q "control: threshold" /tmp/bcgc-ci-control-spike.txt
	grep -qE "peak=(pressure|emergency) .*final=normal forced-failsafes=0" /tmp/bcgc-ci-control-spike.txt

# Full wall-clock suite; refreshes the committed baseline at the repo root.
perf:
	./_build/default/bin/bcgc.exe bench perf

bench:
	JOBS=$(JOBS) dune exec bench/main.exe

bench-full:
	FULL=1 JOBS=$(JOBS) dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/pressure_spike.exe
	dune exec examples/multi_jvm.exe
	dune exec examples/custom_workload.exe
	dune exec examples/trace_compare.exe

doc:
	dune build @doc

clean:
	dune clean
