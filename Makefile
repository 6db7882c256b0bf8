# Targets mirror .github/workflows/ci.yml so local runs and CI are
# identical.

GO ?= go
# Per-benchmark sampling window for the trajectory run. Long enough to
# settle the pooled fast paths, short enough that `make bench` stays
# under a couple of minutes.
BENCHTIME ?= 0.3s
# Every package that defines benchmarks. bench and bench-smoke must
# cover all of them so benchmark code can never silently rot.
BENCH_PKGS = . ./internal/ipc ./internal/rpc ./internal/iomgr ./internal/pager ./internal/camelot ./internal/obs

.PHONY: all build vet fmt fmt-check test race stress bench bench-trajectory bench-smoke fuzz crosshost generate generate-check

all: build vet fmt-check generate-check test

# generate re-runs machgen over the interface definitions in
# internal/idl/defs, rewriting zz_generated_machgen.go files that
# changed.
generate:
	$(GO) generate ./...

# generate-check fails if the committed generated code drifts from the
# definitions (CI runs this, so defs and output can never disagree).
generate-check: generate
	@git diff --exit-code -- '*zz_generated_machgen.go' || { \
		echo "generated code is stale: run 'make generate' and commit" >&2; exit 1; \
	}

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

# One processor and two: an interleaving bug that needs a second core
# (the vm.Map races did) stays invisible at the runner's default.
race:
	$(GO) test -race -cpu 1,2 ./...
	$(GO) test -race -count=2 -run 'TestPortSetChurnStress|TestLoopReceiversShareOneSet' ./internal/ipc

# stress repeats the tests that find interleaving bugs — cross-host
# out-of-line transfers through the shared transit map, the concurrent
# vm model, the camelot commit path with an fsync held (a commit
# overlapping another client's appends; Close with a commit in flight),
# kernel shutdown joining its default-pager loop, migration pre-paging
# against a destination that applies pages asynchronously, the frame
# grants of page-in (every way a grant is settled gives its frames back,
# and none crosses a host), out-of-line messages that die undelivered
# and paging through recycled storage (pooled pager messages, pageout
# buffers and page structures: stamped pages must read back intact) and
# the service loops (several receivers on one set, a handler stopping its
# own loop, and thousands of started and stopped loops leaving no
# goroutine behind) and iomgr's Close (racing sync and async submitters,
# and a thousand closed files leaving no worker) — on one, two and four
# processors. A cold first iteration often passes where the tenth does
# not.
stress:
	$(GO) test -run 'TestCrossHostStress' -cpu 1,2,4 -count=20 ./internal/netmsg
	$(GO) test -run 'TestConcurrentTransitMatchesModel' -cpu 1,2,4 -count=20 ./internal/vm
	$(GO) test -run 'TestDurableCommitOverlapsHeldFsync|TestDurableCloseAnswersHeldCommit' -cpu 1,2,4 -count=20 ./internal/camelot
	$(GO) test -run 'TestShutdownLeavesNoManagerLoop' -cpu 1,2,4 -count=20 ./internal/kern
	$(GO) test -run 'TestMigratePrePaging' -cpu 1,2,4 -count=20 ./internal/migrate
	$(GO) test -run 'TestProvideRangeFillsGrant|TestGrantFramesComeBack|TestPagingKeepsStamps' -cpu 1,2,4 -count=20 ./internal/pager
	$(GO) test -run 'TestGrant|TestHoardingManagerIsBounded|TestPVListKeepsCapacity' -cpu 1,2,4 -count=20 ./internal/vm
	$(GO) test -run 'TestDroppedOOLMessageReleasesTransit|TestGrantStaysOnItsHost|TestFSFileReadThroughGrant' -cpu 1,2,4 -count=20 ./internal/kern
	$(GO) test -run 'TestLoopReceiversShareOneSet|TestLoopSelfStop|TestLoopStopJoins' -cpu 1,2,4 -count=20 ./internal/ipc
	$(GO) test -run 'TestStoppedLoopsLeaveNoGoroutine' -cpu 1,2,4 -count=20 ./internal/pager
	$(GO) test -run 'TestCloseWithSubmittersInFlight|TestClosedFilesLeaveNoGoroutine' -cpu 1,2,4 -count=20 ./internal/iomgr

fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzDecode -fuzztime=5s ./internal/rpc
	$(GO) test -run '^$$' -fuzz=FuzzBatchMatch -fuzztime=5s ./internal/rpc
	$(GO) test -run '^$$' -fuzz=FuzzReceiveFromSet -fuzztime=5s ./internal/ipc
	$(GO) test -run '^$$' -fuzz=FuzzGeneratedReplyDecode -fuzztime=5s ./internal/fs
	$(GO) test -run '^$$' -fuzz=FuzzTraceEventDecode -fuzztime=5s ./internal/obs
	$(GO) test -run '^$$' -fuzz=FuzzRegistryOps -fuzztime=5s ./internal/netmsg

# bench runs every benchmark package with -benchmem and serializes the
# combined output into the next BENCH_<n>.json trajectory point (see
# cmd/benchjson for the schema). Raw output still reaches the terminal.
bench:
	@rm -f bench.out
	for p in $(BENCH_PKGS); do \
		$(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) $$p >> bench.out || exit 1; \
	done
	$(GO) run ./cmd/benchjson emit -dir . < bench.out
	@rm -f bench.out

# bench-trajectory records a new point and gates on the previous one:
# fails on >15% ns/op regression or any allocs/op increase on the
# pinned fast-path benchmarks. This is what CI runs.
bench-trajectory: bench
	$(GO) run ./cmd/benchjson diff

bench-smoke:
	for p in $(BENCH_PKGS); do \
		$(GO) test -bench=. -benchtime=1x -run XXX $$p || exit 1; \
	done

crosshost:
	$(GO) run ./examples/crosshost
