GO ?= go

.PHONY: build test check bench linearize flake benchmark-smoke loc inline-check doc-check deps-check durable-race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: static checks, race-enabled tests on the
# concurrency-sensitive packages (the native harness among them: its
# workers pin themselves concurrently), and the short-mode linearizability
# matrix (a pairwise cover holding every supported structure x technique x
# source combination), the conformance table (TestFrameConformance: every
# arm's frame under one table of rows, which the structure packages' own
# tests no longer repeat), plus the sharded-map tests and the read-path agreement test, which run
# one handle across every shard outside that matrix, and the facade's
# flight-recorder tests (the sampling countdown and the lazily published
# rings are shared state).
# The ./internal/obs/... wildcard covers the telemetry pipeline too:
# obs itself plus obs/promparse and obs/trace.
check: benchmark-smoke inline-check doc-check deps-check durable-race
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test -race ./internal/core/... ./internal/obs/... ./internal/epoch/... ./internal/pool/... ./internal/dcss/... ./internal/linearize/... ./internal/tsc/... ./internal/wal/... ./internal/rcu/... ./internal/ebrrq/... ./internal/history/... ./internal/lfbst/... ./internal/citrus/... ./internal/skiplist/... ./internal/bench/... ./internal/affinity/...
	$(GO) test -race -short -run TestLinearizability .
	$(GO) test -race -run TestFrameConformance .
	$(GO) test -race -short -run 'TestSharded|TestReadPathsAgree' .
	$(GO) test -race -short -run 'TestTimeTravel|TestCheckpointAt' .
	$(GO) test -race -short -run 'TestTrace|TestPhasesSumToOp' .

# durable-race is the durability layer's -race list, run by check and by
# CI's crash-smoke job: the crash matrix (-short caps it at 6 injection
# points per failure kind), recovery, Close and Checkpoint against
# concurrent updates and each other, and the plain-map error paths.
DURABLE_TESTS = TestCrashMatrix|TestCrashDuringRecovery|TestDurable|TestRecoverRefusesCorruptInterior|TestDrainRacesCheckpoint|TestCheckpointOnPlainMapErrors|TestUpdateAfterClose|TestCloseUnderLoad|TestCheckpointAfterClose
durable-race:
	$(GO) test -race -short -run '$(DURABLE_TESTS)' .

# loc prints the non-test Go lines of every package outside benchmark/ and
# their total: ROADMAP asks that the number go down over the round, so CI
# puts it in every PR's log.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# inline-check holds ROADMAP's "monomorphized fast paths must stay
# inlinable" as a gate: what a vCAS-tree traversal does per level — pick
# the edge, test for a leaf, check the head version's label — must be
# inlined where it runs: in the vCAS policy's search and collect walk, each
# one dictionary call per operation of the generic EFRB frame. need FILE
# FUNC CALLEE fails unless the compiler reports CALLEE inlined inside
# FUNC's body in FILE. (*Chain).Read itself
# holds the out-of-line labeling call and is over the inliner's budget
# of 80, so it stays a call from search; its label check is what must not
# be one, there and in the vCAS walk at a bound (ReadAt).
# An EBR-RQ range query reads both labels of every node it collects: the
# label accessor must be inlined into the collector's Add and AddLimbo,
# so a label read is the one call into the one-word dcss.Word's Read,
# whose helping path runs only on a marked word. A lock-based EBR-RQ label
# holds the label lock shared: its uncontended entry (one atomic add) and
# exit must be inlined into the provider's Label, and only the wait for a
# writer's phase to end stays a call.
# The skip list's tower accessor must be inlined wherever its generic frame
# walks a level (the one-level lazy list shares the frame). deny FILE FUNC
# fails if escape analysis reports a closure or a local moved to the heap
# inside FUNC: the list's update paths hold their lock arrays on the stack,
# and the list and the EFRB tree hand the technique node pointers only,
# never their addresses. noheap FILE FUNC is deny for any value escaping to
# the heap: the EFRB frame's update and helping paths allocate nodes through
# the technique only, never a descriptor or clean record (each thread slot
# reuses one descriptor), and the decode of an update word into its slot's
# descriptor and sequence is inlined into help. The history techniques'
# per-update record (Trim) copies the chains it is handed into the thread's
# buffer, keeps its variadic argument on the caller's stack and allocates
# nothing: the buffer's first-use allocation (newBuf) stays out of line. An
# EBR-RQ retire takes its limbo shell from the thread's spare list or slab: the
# epoch manager's Retire allocates nothing, and the slab refill that does
# stays out of line (the structures that instantiate the manager report its
# escapes at epoch.go's lines). Telemetry
# must cost what a counter read costs: the
# telemetry clock, one atomic load once calibrated, and its reading are
# inlined where the facade starts and ends an operation and where the
# recorder ends a span or reads a mark, and no file on the facade's op
# path reads the wall clock. The recorder samples, and an unsampled
# operation must pay its countdown alone: the per-op sample test is inlined
# into every facade operation (Get, update, read), the span call into the
# point operations that end their traverse span (Get, update and the
# durable commit) and the mark call into the durable commit, while the
# recorder's clock reads stay out of line. A
# key reaches its part and its WAL stream through the facade's one routing
# method, (*wrap).part, which inlines the one partition function,
# core.PartOf, and is itself inlined into Get, update and the durable
# commit; no facade file partitions with a % of its own. A logged update
# allocates nothing: the commit closure stays on its stack and the WAL
# record is encoded in place.
inline-check:
	@out="$$($(GO) build -gcflags=-m . ./internal/obs/trace ./internal/history ./internal/epoch ./internal/ebrrq ./internal/lfbst ./internal/skiplist ./internal/wal 2>&1)"; ok=0; \
	report() { s=$$(grep -n "^func $$2[([]" $$1 | cut -d: -f1); \
		e=$$(awk -v s="$$s" 'NR > s && /^}/ { print NR; exit }' $$1); \
		echo "$$out" | awk -F: -v f=$$1 -v s="$$s" -v e="$$e" -v c="$$3" -v d="$$4" \
			'$$1 == f && $$2 >= s && $$2 < e && (index($$0, c) || (d != "" && index($$0, d))) { hit = 1 } END { exit !hit }'; }; \
	need() { report "$$1" "$$2" "inlining call to $$3" \
		|| { echo "inline-check: $$3 is not inlined into $$2 ($$1)"; ok=1; }; }; \
	deny() { ! report "$$1" "$$2" "func literal escapes to heap" "moved to heap" \
		|| { echo "inline-check: $$2 ($$1) allocates a closure or moves a local to the heap"; ok=1; }; }; \
	noheap() { ! report "$$1" "$$2" "escapes to heap" "moved to heap" \
		|| { echo "inline-check: $$2 ($$1) allocates on the heap"; ok=1; }; }; \
	need internal/history/vcas.go '(c \*Chain\[V\]) Read' 'history.label['; \
	need internal/history/vcas.go '(c \*Chain\[V\]) ReadAt' 'history.label['; \
	for fn in Add AddLimbo; do \
		need internal/ebrrq/collect.go "(c \*Collector) $$fn" '(*Label).Get'; done; \
	for fn in rlock runlock; do \
		need internal/ebrrq/ebrrq.go '(p \*Provider) Label' "(*rwLock).$$fn"; done; \
	need internal/lfbst/lfbst.go '(p \*vcasTechnique) search' '(*vlinks).child'; \
	need internal/lfbst/lfbst.go '(p \*vcasTechnique) search' '(*vlinks).leaf'; \
	need internal/lfbst/lfbst.go '(p \*vcasTechnique) collectAt' '(*vlinks).leaf'; \
	for fn in lookup find RangeQueryAt; do \
		need internal/skiplist/skiplist.go "(t \*list\[L, P\]) $$fn" '(*tower['; done; \
	for fn in lockPreds "(t \*list\[L, P\]) Insert" "(t \*list\[L, P\]) Delete"; do \
		deny internal/skiplist/skiplist.go "$$fn"; done; \
	for fn in Insert Delete helpInsert helpDelete helpMarked; do \
		noheap internal/lfbst/lfbst.go "(t \*tree\[L, P\]) $$fn"; done; \
	need internal/lfbst/lfbst.go '(t \*tree\[L, P\]) help' 'words.decode'; \
	noheap internal/history/technique.go '(t \*Technique\[T\]) Trim'; \
	noheap internal/epoch/epoch.go '(m \*Manager\[T\]) Retire'; \
	need ./tscds.go '(w \*wrap) observe' 'tsc.Clock.Now'; \
	need internal/obs/trace/trace.go '(r \*Recorder) span' 'tsc.Clock.Now'; \
	need internal/obs/trace/trace.go '(r \*Recorder) now' 'tsc.Clock.Now'; \
	for fn in start observe; do \
		need ./tscds.go "(w \*wrap) $$fn" 'tsc.TelemetryClock'; done; \
	for fn in now span; do \
		need internal/obs/trace/trace.go "(r \*Recorder) $$fn" 'tsc.TelemetryClock'; done; \
	for fn in Get update read; do \
		need ./tscds.go "(w \*wrap) $$fn" 'trace.(*Recorder).Sample'; done; \
	for fn in Get update; do \
		need ./tscds.go "(w \*wrap) $$fn" 'trace.(*Recorder).Span'; done; \
	need ./durable.go '(w \*wrap) commit' 'trace.(*Recorder).Now'; \
	need ./durable.go '(w \*wrap) commit' 'trace.(*Recorder).Span'; \
	need ./tscds.go '(w \*wrap) part' 'core.PartOf'; \
	for fn in Get update; do \
		need ./tscds.go "(w \*wrap) $$fn" '(*wrap).part'; done; \
	need ./durable.go '(w \*wrap) commit' '(*wrap).part'; \
	deny ./durable.go '(w \*wrap) commit'; \
	deny internal/wal/record.go appendRecord; \
	if grep -n 'time\.\(Now\|Since\)' tscds.go durable.go sharded.go timetravel.go internal/obs/trace/trace.go; then \
		echo "inline-check: the op path above reads the wall clock; read tsc.TelemetryClock"; ok=1; fi; \
	if awk '{ l = $$0; gsub(/"([^"\\]|\\.)*"|`[^`]*`/, "", l); sub(/\/\/.*/, "", l) } \
		l ~ /%/ { print FILENAME ":" FNR ": " $$0; bad = 1 } END { exit !bad }' $$(ls *.go | grep -v _test.go); then \
		echo "inline-check: a facade file partitions keys with its own %; call core.PartOf"; ok=1; fi; \
	exit $$ok

# doc-check keeps the documentation, CI and the verify skill from naming
# what is not in the tree: a path under cmd/ or internal/ (a package at any
# depth, or a .go/.s file), a BENCH_*.json
# artifact, a subcommand `reproduce` does not dispatch (a
# `case "<word>":` in its main.go), or an `-arm structure/technique` whose
# structure or technique is not a key of its map in internal/bench/arms.go,
# or a backticked Test/Fuzz/Benchmark name that no *_test.go declares as a
# func (a trailing * names a prefix).
# ISSUE/CHANGES/ROADMAP are history and plans, benchmark/ is
# frozen by BENCHMARK.json; neither is checked.
DOCS = $(filter-out ./ISSUE.md ./CHANGES.md ./ROADMAP.md ./benchmark/%, \
	$(shell find . -name '*.md' -not -path './.git/*')) .github/workflows/ci.yml
doc-check:
	@ok=0; miss() { echo "doc-check: $$1, named in:"; grep -lF -- "$$2" $(DOCS) | sed 's/^/  /'; ok=1; }; \
	for d in $$(grep -ohE '(cmd|internal)(/[a-z_0-9]+)+(\.go|\.s)?' $(DOCS) | sort -u); do \
		[ -e "$$d" ] || miss "$$d does not exist" "$$d"; done; \
	for f in $$(grep -ohE 'BENCH_[A-Za-z*{},]+\.json' $(DOCS) | sort -u); do \
		[ -e "$$f" ] || miss "$$f does not exist" "$$f"; done; \
	for c in $$(grep -ohE '(\./cmd/reproduce|`reproduce) +[a-z]+' $(DOCS) | awk '{ print $$NF }' | sort -u); do \
		grep -q "case \"$$c\":" cmd/reproduce/main.go || miss "reproduce has no subcommand $$c" "reproduce $$c"; done; \
	keys() { sed -n "/^	$$1 = map/,/^	}/p" internal/bench/arms.go | grep -oE '"[a-z-]+":' | tr -d '":'; }; \
	for a in $$(grep -ohE -- '-arm +[a-z]+/[a-z-]+' $(DOCS) | awk '{ print $$NF }' | sort -u); do \
		keys structures | grep -qx "$${a%/*}" && keys techniques | grep -qx "$${a#*/}" \
			|| miss "internal/bench/arms.go has no arm $$a" "-arm $$a"; done; \
	funcs=$$(grep -rhoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' --include='*_test.go' . | cut -d' ' -f2); \
	for n in $$(grep -ohE '`[^`]+`' $(DOCS) | grep -oE '(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*\*?' | sort -u); do \
		case "$$n" in *\*) echo "$$funcs" | grep -q "^$${n%\*}" ;; *) echo "$$funcs" | grep -qx "$$n" ;; esac \
			|| miss "no *_test.go declares $$n" "$$n"; done; \
	exit $$ok

# deps-check keeps the history chain free of any allocation policy: vCAS
# and Bundling keep what they detach reachable to snapshot
# readers, so nothing they publish is ever proven free, and only the EBR-RQ
# policies own a node pool. It also keeps each technique's lifecycle in its
# own package: the structures reach the epoch manager and the pool only
# through ebrrq.Technique, never by importing either themselves. And it
# keeps wiring at construction: structures, technique lifecycles, epoch
# managers and Readers take their sinks as constructor arguments and a map
# attaches to its metrics registry in one Attach call, so no non-test Go
# file outside benchmark/ may declare a method under the name of one of the
# post-construction setters this replaced (WIRING_SETTERS), and
# internal/core may not declare a package-level function under the name of
# one (WIRING_FUNCS): a timestamp source gets its stats and health monitor
# from core.NewSource.
WIRING_SETTERS = SetHooks|RecycleIf|SetGC|SetTrace|SetRecycle|SetSourceKind|SetSourceActual|SetStructure|SetAllocMode|SetWALMode|EnsureShards
WIRING_FUNCS = Count
deps-check:
	@if $(GO) list -deps ./internal/history | grep -qx 'tscds/internal/pool'; then \
		echo "deps-check: internal/history depends on internal/pool"; exit 1; fi
	@for d in lfbst citrus skiplist; do \
		if $(GO) list -f '{{join .Imports "\n"}}' ./internal/$$d | grep -qxE 'tscds/internal/(epoch|pool)'; then \
			echo "deps-check: internal/$$d imports internal/epoch or internal/pool; go through ebrrq.Technique"; exit 1; fi; done
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark '^func \([^)]*\) ($(WIRING_SETTERS))\(' .; then \
		echo "deps-check: a post-construction setter is declared above; take the sinks at construction"; exit 1; fi
	@if grep -nE '^func ($(WIRING_FUNCS))\(' $$(ls internal/core/*.go | grep -v _test.go); then \
		echo "deps-check: a post-construction wiring function is declared above; core.NewSource takes a source's stats and health"; exit 1; fi

# benchmark-smoke compiles and runs the repository benchmark's own tests.
# benchmark/ is a separate module, so `go test ./...` at the root never
# builds it: a rename in obs.WALStats, wal.FS or the trace snapshot would
# otherwise surface only at the next benchmark run.
benchmark-smoke:
	cd benchmark && $(GO) test ./...

# linearize runs the full-load linearizability matrix under the race
# detector. Reproduce a failure with:
#   go test -race -run 'TestLinearizability/<subtest>' . -linearize.seed=<seed>
linearize:
	$(GO) test -race -v -run TestLinearizability .

# flake is ROADMAP's "N consecutive green runs of the linearizability
# matrix" as a command: it builds the root test binary once, runs
# -run TestLinearizability N times (about a second each), prints every
# failing cell with the number of runs it failed in, and fails if any did.
N ?= 50
flake:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) test -c -o $$tmp/root.test . || exit 1; bad=0; \
	for i in $$(seq $(N)); do \
		$$tmp/root.test -test.count=1 -test.run TestLinearizability > $$tmp/out 2>&1 && continue; \
		bad=$$((bad+1)); \
		sed -n 's/ *--- FAIL: \(.*\/.*\) (.*/\1/p' $$tmp/out | grep . >> $$tmp/cells || tail -5 $$tmp/out; \
	done; \
	[ -s $$tmp/cells ] && sort $$tmp/cells | uniq -c | sort -rn; \
	echo "flake: $$bad of $(N) runs failed"; [ $$bad -eq 0 ]

bench:
	$(GO) test -bench=. -benchtime=200ms -run=^$$ .
