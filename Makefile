.PHONY: all build test test-release oracle-check ci alloc-path-check sched-path-check mark-path-check global-check export-check bench-check examples-check trace-smoke multiproc-smoke perf-smoke perf-guard perfbench-check campaign-smoke domains-smoke slo-smoke control-smoke perf examples doc clean bench bench-full

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
# cross-module inlining that Heapsim.Object_table's unchecked loads from
# its 32-byte rows and 32-bit slab slots are written for, and
# test_heapsim's guard on the host words those rows cost must hold in
# both builds.
test-release:
	DUNE_CACHE=disabled dune runtest --root . --profile release \
	  --build-dir .release_build

# Oracle check: the whole suite again with BC_ORACLE=1, under which BC
# runs Gc_common.Verify.heap after every collection, so the page-index
# rule (every object on an indexed page in each bucket it spans, at the
# slot its page_slot names; every object on an unindexed page wholly
# inside its range) and the rest of Verify hold after every BC collection
# in the suite. ROADMAP item 3's differential liveness oracle replaces
# this target when BC_ORACLE goes.
oracle-check:
	BC_ORACLE=1 dune runtest --force

# Full CI gate: everything compiles (including examples and benches), every
# collector allocates through Gc_common.Alloc, only the scheduler starts
# workers, only the tracer marks, no module holds mutable state of its
# own, every export has a caller, the whole suite passes — test_faults
# runs the fault-plan smoke tests with fixed seeds, so regressions in the
# degradation paths fail here — the quick experiment text and the
# examples' output match their goldens, traced runs (one solo, one
# two-process) produce valid Chrome JSON covering every expected GC
# phase kind, and the suite passes again in the release profile and
# with the heap verified after every BC collection. The wall-clock
# perf-guard runs last: it depends on how busy the machine is, so a
# failure there must not hide the deterministic checks before it.
# Every step writes its scratch files under .ci_scratch/ in the checkout
# (git-ignored), never to fixed names in /tmp, so two checkouts, such as
# a parent and a change being compared, can run `make ci` side by side.
ci:
	dune build @all && $(MAKE) alloc-path-check && $(MAKE) sched-path-check && $(MAKE) mark-path-check && $(MAKE) global-check && $(MAKE) export-check && dune runtest && $(MAKE) bench-check && $(MAKE) examples-check && $(MAKE) trace-smoke && $(MAKE) multiproc-smoke && $(MAKE) perf-smoke && $(MAKE) perfbench-check && $(MAKE) test-release && $(MAKE) oracle-check && $(MAKE) campaign-smoke && $(MAKE) domains-smoke && $(MAKE) slo-smoke && $(MAKE) control-smoke && $(MAKE) perf-guard

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

# One scheduler: Supervisor.run is the only scheduling loop, so only
# supervisor.ml may fork a worker and only domain_pool.ml may spawn a domain.
# A call to either anywhere else under lib/ or bin/ fails here, named; the
# patterns match calls, not mentions in comments. grep exits 1 when nothing
# matches; any other status (a match, or grep's own error) fails the target.
sched-path-check:
	@only_in() { \
	  files=$$(grep -rlE --include='*.ml' --exclude="$$2" "$$1" lib bin); \
	  status=$$?; \
	  if [ $$status -eq 0 ]; then \
	    echo "sched-path-check: $$3 outside $$2 in:" $$files >&2; return 1; \
	  elif [ $$status -ne 1 ]; then \
	    echo "sched-path-check: grep failed with status $$status" >&2; return 1; \
	  fi; \
	}; \
	only_in 'Unix\.fork[[:space:]]*\(\)' supervisor.ml 'Unix.fork ()' && \
	only_in 'Domain\.spawn[[:space:]]*\(' domain_pool.ml 'Domain.spawn ('

# One trace, one mark: Gc_common.Tracer.run is the only trace, and the epoch
# it writes into each object's scratch word is the only mark, so only
# tracer.ml may read or write that word. Object_table.scratch or
# Object_table.set_scratch anywhere else under lib/ or bin/ fails here,
# named. grep exits 1 when nothing matches; any other status (a match, or
# grep's own error) fails the target.
mark-path-check:
	@files=$$(grep -rlE --include='*.ml' --exclude=tracer.ml 'Object_table\.(set_)?scratch\b' lib bin); \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
	  echo "mark-path-check: Object_table.scratch outside tracer.ml in:" $$files >&2; exit 1; \
	elif [ $$status -ne 1 ]; then \
	  echo "mark-path-check: grep failed with status $$status" >&2; exit 1; \
	fi

# No module state: machines run concurrently on the domain pool and OCaml 5
# domains share one heap, so a module-level ref, Atomic or mutex under lib/
# or bin/ would be shared by every machine in the process. The pool's own
# global in domain_pool.ml is the one exception. A top-level binding of
# such a value fails here, named. grep exits 1 when nothing matches; any
# other status (a match, or grep's own error) fails the target.
global-check:
	@files=$$(grep -rlE --include='*.ml' --exclude=domain_pool.ml '^let [a-z_0-9]+( *:[^=]*)? *= *(ref\b|Atomic\.make|Mutex\.create)' lib bin); \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
	  echo "global-check: module-level ref, Atomic or mutex in:" $$files >&2; exit 1; \
	elif [ $$status -ne 1 ]; then \
	  echo "global-check: grep failed with status $$status" >&2; exit 1; \
	fi

# Every export has a caller: each `val' in a .mli under lib/ must appear as
# <Module>.<name> in a .ml under lib, bin, test, examples, bench or
# perfbench other than its own module's .ml. Only the name after the dot
# is matched, so a dead export whose name another module also exports
# (and someone calls) slips past: those need removing by hand. Each miss
# fails here as `file: name'. grep exits 0 on a match and 1 on none; any
# other status (grep's own error) fails the target.
export-check:
	@mkdir -p .ci_scratch
	@grep -roE --include='*.ml' "[A-Z][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*" \
	  lib bin test examples bench perfbench > .ci_scratch/export-uses.txt; \
	status=$$?; \
	if [ $$status -gt 1 ]; then \
	  echo "export-check: grep failed with status $$status" >&2; exit 1; \
	fi; \
	grep -rE --include='*.mli' '^ *val [a-z_]' lib > .ci_scratch/export-vals.txt; \
	status=$$?; \
	if [ $$status -gt 1 ]; then \
	  echo "export-check: grep failed with status $$status" >&2; exit 1; \
	fi; \
	awk -F: 'FNR == NR { name = $$2; sub(/.*\./, "", name); \
	                     if (!((name, $$1) in seen)) { seen[name, $$1] = 1; n[name]++ }; next } \
	         { match($$2, /val [a-z_][A-Za-z0-9_'"'"']*/); name = substr($$2, RSTART + 4, RLENGTH - 4); \
	           own = $$1; sub(/\.mli$$/, ".ml", own); \
	           if (n[name] - ((name, own) in seen) < 1) { print $$1 ": " name > "/dev/stderr"; bad = 1 } } \
	         END { if (bad) print "export-check: exports above have no caller outside their own module" > "/dev/stderr"; exit bad }' \
	  .ci_scratch/export-uses.txt .ci_scratch/export-vals.txt

# Bench check: the quick-mode text of `bcgc bench all', `control', `slo'
# and `trace', in that order, must match test/golden/bench_quick.txt byte
# for byte. Cells run in virtual time, so the text is the same at any -j.
# CSV_DIR and CHARTS are cleared: they add output lines. A non-zero exit
# from bcgc fails the target too.
bench-check:
	mkdir -p .ci_scratch
	rm -f .ci_scratch/bench.txt
	for t in all control slo trace; do \
	  env -u CSV_DIR -u CHARTS ./_build/default/bin/bcgc.exe bench $$t \
	    -j $(JOBS) >> .ci_scratch/bench.txt || exit 1; \
	done
	diff test/golden/bench_quick.txt .ci_scratch/bench.txt

# Examples check: the five built examples, in the order the `examples'
# target runs them, must print test/golden/examples.txt byte for byte.
# quickstart prints Gc_stats.pp and Vm_stats.pp, so this pins the
# counter records as users see them. A non-zero exit fails the target.
examples-check:
	mkdir -p .ci_scratch
	rm -f .ci_scratch/examples.txt
	for e in quickstart pressure_spike multi_jvm custom_workload trace_compare; do \
	  ./_build/default/examples/$$e.exe >> .ci_scratch/examples.txt || exit 1; \
	done
	diff test/golden/examples.txt .ci_scratch/examples.txt

# Trace smoke: a small pressured run known (deterministically) to exercise
# minor, full, compacting and every BC sub-phase; `bcgc trace` re-parses
# the emitted JSON and fails if any expected span kind is missing.
trace-smoke:
	mkdir -p .ci_scratch
	./_build/default/bin/bcgc.exe run -c BC -w _201_compress \
	  --volume 0.1 --heap-kb 1536 --frames 500 --pin 250 \
	  --trace .ci_scratch/trace.json
	./_build/default/bin/bcgc.exe trace .ci_scratch/trace.json \
	  --expect-phases minor,full,compacting,mark,sweep,evacuate,bookmark-scan,reconcile

# Multiproc smoke: BC and a competing GenMS instance share one tight
# machine; the primary must still complete every phase kind, and the
# trace must carry the per-process progress counter.
multiproc-smoke:
	mkdir -p .ci_scratch
	./_build/default/bin/bcgc.exe run -c BC --coworker GenMS -w _201_compress \
	  --volume 0.1 --heap-kb 1536 --frames 500 \
	  --trace .ci_scratch/multiproc.json
	./_build/default/bin/bcgc.exe trace .ci_scratch/multiproc.json \
	  --expect-phases minor,full,compacting,mark,sweep,evacuate,bookmark-scan,reconcile

# Perf smoke: one repetition of the wall-clock suite, written to .ci_scratch and
# schema-validated by `bcgc bench perf` itself. Guards the benchmark
# plumbing, not the numbers — wall-clock throughput is machine-dependent.
perf-smoke:
	mkdir -p .ci_scratch
	./_build/default/bin/bcgc.exe bench perf --perf-reps 1 \
	  --perf-out .ci_scratch/perf.json

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
	mkdir -p .ci_scratch
	DUNE_CACHE=disabled dune build --root . --profile release \
	  --build-dir .bench_build ./perfbench/main.exe
	./.bench_build/default/perfbench/main.exe \
	  --write-expected .ci_scratch/perfbench-digests.txt
	grep -v '^#' .ci_scratch/perfbench-digests.txt > .ci_scratch/perfbench-cells.txt
	grep -v '^#' perfbench/expected_digests.txt \
	  | diff - .ci_scratch/perfbench-cells.txt

# Campaign smoke: interruption drill on the 8-cell example campaign.
# Run three cells and stop (exit 3), resume to completion, re-run the whole
# campaign uninterrupted on a second journal, and require the two
# consolidated reports to be byte-identical; then once more under
# chaos (workers randomly SIGKILLed), same requirement.
campaign-smoke:
	mkdir -p .ci_scratch
	rm -f .ci_scratch/campaign.journal* .ci_scratch/campaign-fresh.journal* .ci_scratch/campaign-chaos.journal*
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 2 --journal .ci_scratch/campaign.journal --stop-after 3; test $$? -eq 3
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 2 --journal .ci_scratch/campaign.journal --resume
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 4 --journal .ci_scratch/campaign-fresh.journal
	cmp .ci_scratch/campaign.journal.report.json .ci_scratch/campaign-fresh.journal.report.json
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 3 --journal .ci_scratch/campaign-chaos.journal --chaos kill-workers --chaos-seed 11
	cmp .ci_scratch/campaign.journal.report.json .ci_scratch/campaign-chaos.journal.report.json

# Domains smoke: the same example campaign on the fork backend and on the
# shared-memory domain pool, in separate process invocations (Unix.fork is
# permanently refused once a domain has been spawned, so the two engines
# cannot share a process in that order). The consolidated reports must be
# byte-identical; jobs exceed the 8 cells to exercise the clamp.
domains-smoke:
	mkdir -p .ci_scratch
	rm -f .ci_scratch/domains-fork.journal* .ci_scratch/domains-pool.journal*
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 4 --backend fork --journal .ci_scratch/domains-fork.journal
	./_build/default/bin/bcgc.exe campaign run examples/campaign_smoke.json \
	  -j 4 --backend domains --journal .ci_scratch/domains-pool.journal
	cmp .ci_scratch/domains-fork.journal.report.json .ci_scratch/domains-pool.journal.report.json

# SLO smoke: the quick request-serving matrix (shaped + flash load, three
# collectors). `bench slo` self-validates the written report against the
# bcgc-slo-report/1 schema (every cell's slo summary must round-trip)
# before the file lands; the greps assert the percentile columns reached
# the table and the schema tag reached the file.
slo-smoke:
	mkdir -p .ci_scratch
	./_build/default/bin/bcgc.exe bench slo \
	  --slo-out .ci_scratch/slo.json | tee .ci_scratch/slo.txt
	grep -q "p999(ms)" .ci_scratch/slo.txt
	grep -q "bcgc-slo-report/1" .ci_scratch/slo.json

# Control smoke: the threshold controller's staged-degradation FSM across
# two fault plans, 1 ms decision windows. Deterministic per seed+plan. On
# the benign plan (lossy notices under steady pressure) the ladder may
# reach Pressure but must never touch Failsafe; on the spike plan (three
# 256-page transient bursts on tight frames) the run must degrade AND
# recover — end in Normal with no forced failsafe collections.
control-smoke:
	mkdir -p .ci_scratch
	./_build/default/bin/bcgc.exe run -c BC -w _202_jess --volume 0.36 \
	  --heap-kb 3072 --frames 960 --pin 307 --controller threshold \
	  --control-window 1 --faults 'drop-evict=0.1,delay=0.05' \
	  | tee .ci_scratch/control-benign.txt
	grep -q "control: threshold" .ci_scratch/control-benign.txt
	! grep -E "peak=failsafe|forced-failsafes=[1-9]" .ci_scratch/control-benign.txt
	./_build/default/bin/bcgc.exe run -c BC -w _202_jess --volume 0.36 \
	  --heap-kb 3072 --frames 960 --controller threshold \
	  --control-window 1 --faults 'drop-evict=0.3,spikes=3,spike-pages=256' \
	  | tee .ci_scratch/control-spike.txt
	grep -q "control: threshold" .ci_scratch/control-spike.txt
	grep -qE "peak=(pressure|emergency) .*final=normal forced-failsafes=0" .ci_scratch/control-spike.txt

# Full wall-clock suite; refreshes the committed baseline at the repo root.
perf:
	./_build/default/bin/bcgc.exe bench perf

bench:
	dune exec bin/bcgc.exe -- bench all -j $(JOBS)

bench-full:
	dune exec bin/bcgc.exe -- bench all --full -j $(JOBS)

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
	rm -rf .ci_scratch
