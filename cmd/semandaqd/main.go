// Command semandaqd runs Semandaq as a long-running data-quality
// service: datasets are registered once, constraints compiled once, and
// detect/repair/discover are served over HTTP/JSON to any number of
// concurrent clients (see internal/server for the API).
//
// Usage:
//
//	semandaqd [-addr :8080] [-workers 0] [-shards 0] [-preload 0] [-index-budget-mb 0] [-pprof addr]
//
// -workers sizes the per-dataset detection worker pool (0 = NumCPU,
// 1 = serial). -shards sets the PLI build fan-out: cold partition
// builds run as TID-range-parallel counting sorts across this many
// shards (0 = GOMAXPROCS, 1 = serial; output is byte-identical either
// way). -preload N registers two built-in datasets at startup, which
// makes the quickstart in README.md work with curl alone: "cust", N
// noisy tuples with its planted CFDs plus the street-determination rule
// restated as a denial constraint, and "emp", N/10 tuples with planted
// pay inversions and the pay-scale DC (the demo target for POST
// /v1/dc/detect and /v1/dc/relax). -index-budget-mb caps each dataset's
// PLI cache (discovery lattices evict before detection partitions);
// 0 keeps every partition resident, and the default -1 derives a budget
// from the process memory ceiling: GOMEMLIMIT/4 when a limit is set,
// else MemTotal/8 from /proc/meminfo, else unlimited. -spill-dir turns
// budget evictions into tiered demotions: clean partitions are written
// as segment files under the directory and paged back in via read-only
// mmap instead of rebuilt (see the "Tiered storage" section of
// README.md); empty keeps the discard-on-evict behavior. -pprof serves
// net/http/pprof (/debug/pprof/...) on its own listener at the given
// address, never on the API address; empty (the default) listens
// nowhere.
//
// Durability (see the "Durability" section of README.md):
//
//	semandaqd -data-dir /var/lib/semandaq [-wal-sync always] [-checkpoint-every 5m]
//
// -data-dir names the directory holding the write-ahead log and
// per-dataset snapshot files; every acked mutation is journaled there
// before the HTTP response goes out, and startup replays snapshots plus
// the WAL tail to recover exactly the acked state. While replay runs
// the daemon is listening but answers 503 — /healthz reports
// {"status":"recovering"} so probes can tell a recovering daemon from a
// dead one. -wal-sync picks the fsync policy: "always" (default; an
// acked write is on stable storage), "interval" (fsync coalesced to a
// short window; a crash can lose that window), "none" (leave flushing
// to the OS). -checkpoint-every snapshots every dataset and compacts
// the WAL on that period (0 = checkpoint only at graceful shutdown).
// Empty -data-dir keeps the daemon ephemeral. In cluster mode the
// coordinator journals registrations, constraint installs and appends
// (full rows — the log doubles as the worker re-feed source) and
// replays them through the fleet at startup; workers run their own
// -data-dir independently.
//
// Cluster mode (see the "Scatter-gather cluster" section of README.md):
//
//	semandaqd -worker -addr :8091          # worker owning a TID-range slice
//	semandaqd -cluster http://h1,http://h2 # coordinator fronting workers
//
// -worker only changes startup logging — every semandaqd over a local
// engine mounts the /v1/shard/* protocol — but names the role for
// operators. -cluster takes a comma-separated worker URL list and
// serves the same public surface through a coordinator instead:
// registration range-partitions datasets across the fleet,
// detect/discover fan out and merge byte-identically to a single
// process, and appends route to the tail worker. -preload works in both
// modes (the coordinator registers through the fleet).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux, which only the -pprof listener serves
	"os"
	"os/signal"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"semandaq/internal/datagen"
	"semandaq/internal/engine"
	"semandaq/internal/noise"
	"semandaq/internal/server"
	"semandaq/internal/wal"
)

// backend is what the one serving loop below needs from the engine
// behind the handler — *engine.Engine, or *engine.Coordinator with
// -cluster. Both are a registry that replays a WAL and takes a journal;
// only the engine is also a wal.CheckpointSource (the coordinator's log
// IS its registry, so it never checkpoints) and has spill directories
// to Close.
type backend interface {
	engine.Registry
	wal.Applier
	SetJournal(engine.Journal)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "detection worker pool size (0 = NumCPU, 1 = serial)")
	shards := flag.Int("shards", 0, "PLI build shard fan-out (0 = GOMAXPROCS, 1 = serial)")
	preloadN := flag.Int("preload", 0, "preload a noisy 'cust' dataset of this many tuples")
	indexBudgetMB := flag.Int64("index-budget-mb", -1, "per-dataset PLI cache budget in MiB (0 = unlimited, -1 = derive from GOMEMLIMIT or total memory)")
	spillDir := flag.String("spill-dir", "", "directory for tiered index storage: evicted partitions spill to segment files here instead of being discarded (empty = disabled)")
	workerMode := flag.Bool("worker", false, "run as a cluster worker owning a TID-range slice (logging only; the shard protocol is always mounted)")
	cluster := flag.String("cluster", "", "comma-separated worker base URLs; serve the scatter-gather coordinator surface instead of a local engine")
	dataDir := flag.String("data-dir", "", "durability directory for the write-ahead log and snapshots (empty = ephemeral, no durability)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always|interval|none")
	checkpointEvery := flag.Duration("checkpoint-every", 5*time.Minute, "periodic snapshot + WAL compaction interval when -data-dir is set (0 = only at graceful shutdown)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, on a listener of its own (empty = disabled)")
	flag.Parse()

	syncPolicy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatalf("semandaqd: %v", err)
	}
	if *cluster != "" && *workerMode {
		log.Fatal("semandaqd: -worker and -cluster are mutually exclusive")
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("semandaqd: pprof: %v", err)
		}
		log.Printf("pprof listening on %s", ln.Addr())
		// Lives until the process exits: a profile must still be
		// readable while the API server drains.
		go func() { log.Printf("semandaqd: pprof: %v", http.Serve(ln, nil)) }()
	}

	// The two modes differ in what is built here and nowhere below.
	var (
		be      backend
		handler *server.Server
		role    = "semandaqd"
	)
	if *cluster != "" {
		coord, err := newCoordinator(*cluster)
		if err != nil {
			log.Fatalf("semandaqd: %v", err)
		}
		be, handler = coord, server.NewCoordinator(coord)
		role = fmt.Sprintf("semandaqd coordinator for %d workers", len(coord.Workers()))
	} else {
		budget := *indexBudgetMB << 20
		if *indexBudgetMB < 0 {
			budget = deriveIndexBudget()
			if budget > 0 {
				log.Printf("index budget derived from memory ceiling: %d MiB per dataset (override with -index-budget-mb)", budget>>20)
			}
		}
		eng := engine.New(engine.Options{Workers: *workers, Shards: *shards, IndexBudgetBytes: budget, SpillDir: *spillDir})
		if *spillDir != "" {
			log.Printf("tiered index storage under %s", *spillDir)
		}
		be, handler = eng, server.New(eng)
		if *workerMode {
			role = "semandaqd worker"
		}
	}
	checkpoints, _ := be.(wal.CheckpointSource)

	srv := &http.Server{
		Handler:           logRequests(handler),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before recovery: while WAL replay runs the daemon answers
	// 503 with /healthz naming the "recovering" phase, so probes see a
	// starting daemon rather than a dead port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("semandaqd: %v", err)
	}
	handler.SetRecovering(*dataDir != "")
	errCh := make(chan error, 1)
	go func() {
		log.Printf("%s listening on %s", role, *addr)
		errCh <- srv.Serve(ln)
	}()

	var mgr *wal.Manager
	if *dataDir != "" {
		start := time.Now()
		mgr, err = wal.OpenManager(*dataDir, syncPolicy)
		if err != nil {
			log.Fatalf("semandaqd: opening data dir: %v", err)
		}
		// An engine loads snapshots, then replays the tail; a coordinator
		// replays its whole log through the fleet, re-partitioning and
		// re-feeding workers that came back empty.
		snaps, replayed, err := mgr.Recover(be)
		if err != nil {
			log.Fatalf("semandaqd: recovery: %v", err)
		}
		// Attach the journal only after replay: a journaling replay
		// would re-log every record.
		be.SetJournal(mgr)
		handler.SetRecovering(false)
		log.Printf("recovered %d snapshot(s) + %d WAL record(s) from %s in %s (wal-sync=%s)",
			snaps, replayed, *dataDir, fmtDuration(time.Since(start)), syncPolicy)
		if checkpoints != nil && *checkpointEvery > 0 {
			go checkpointLoop(ctx, mgr, checkpoints, *checkpointEvery)
		}
	}

	if *preloadN > 0 {
		if err := preload(be, *preloadN); err != nil {
			log.Fatalf("semandaqd: preload: %v", err)
		}
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("semandaqd: %v", err)
		}
	case <-ctx.Done():
		log.Printf("%s: shutting down", role)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Fatalf("semandaqd: shutdown: %v", err)
		}
		if mgr != nil {
			if checkpoints != nil {
				// A final checkpoint makes the next startup a pure
				// snapshot load with an empty tail.
				if err := mgr.Checkpoint(checkpoints); err != nil {
					log.Printf("semandaqd: shutdown checkpoint: %v", err)
				}
			}
			if err := mgr.Close(); err != nil {
				log.Printf("semandaqd: closing wal: %v", err)
			}
		}
		// Drop every local dataset so per-dataset spill directories
		// (MkdirTemp under -spill-dir) are removed, not leaked across
		// restarts.
		if c, ok := be.(interface{ Close() }); ok {
			c.Close()
		}
	}
}

// checkpointLoop snapshots every dataset and compacts the WAL on a
// fixed period, bounding the tail replay a crash recovery pays.
func checkpointLoop(ctx context.Context, mgr *wal.Manager, src wal.CheckpointSource, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			start := time.Now()
			if err := mgr.Checkpoint(src); err != nil {
				log.Printf("semandaqd: checkpoint: %v", err)
				continue
			}
			log.Printf("checkpoint complete in %s (wal now %d bytes)",
				fmtDuration(time.Since(start)), mgr.LogSize())
		}
	}
}

// newCoordinator builds the coordinator over the worker fleet at the
// given comma-separated base URLs.
func newCoordinator(workerList string) (*engine.Coordinator, error) {
	var clients []engine.ShardClient
	for _, u := range strings.Split(workerList, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		cl := server.NewShardClient(u, 5*time.Minute)
		// Idempotent fan-out calls (shard detect/groups/dc) retry with
		// jittered backoff; registration and appends stay at-most-once.
		cl.SetRetryPolicy(server.DefaultRetryPolicy())
		clients = append(clients, cl)
	}
	return engine.NewCoordinator(clients)
}

// preload registers the two demo datasets through the backend — whole
// on a local engine, range-partitioned across the fleet by a
// coordinator — skipping those recovery already restored: the durable
// state, not the generator, is authoritative across restarts.
func preload(be backend, n int) error {
	have := be.List()
	if !slices.Contains(have, "cust") {
		// The benchmark workload: a noisy cust relation with the
		// constraints datagen plants in it.
		clean := datagen.Cust(n, 1)
		schema := clean.Schema()
		dirty, _ := noise.Dirty(clean, noise.Options{
			Rate:  0.05,
			Attrs: []int{schema.MustIndex("STR"), schema.MustIndex("CT")},
			Seed:  2,
		})
		if _, err := be.Add("cust", dirty); err != nil {
			return err
		}
		if _, err := be.InstallConstraints("cust", datagen.CustConstraints().String()); err != nil {
			return err
		}
		// The planted (CC, ZIP) → STR rule restated as a denial
		// constraint: same country and zip must not name different
		// streets. Detecting it reuses the {CC, ZIP} partition the CFD
		// detector already cached.
		if _, err := be.InstallDCs("cust", "dc zipstr: !( t.CC = u.CC & t.ZIP = u.ZIP & t.STR != u.STR )"); err != nil {
			return err
		}
		log.Printf("preloaded dataset %q with %d tuples and planted constraints", "cust", n)
	}
	if !slices.Contains(have, "emp") {
		// The denial-constraint demo workload: an emp relation with ~1%
		// planted pay inversions and the pay-scale DC, so /v1/dc/detect
		// finds violations and /v1/dc/relax has weakenings to rank right
		// after startup.
		nEmp := (n + 9) / 10
		if _, err := be.Add("emp", datagen.Emp(nEmp, max(nEmp/100, 1), 3)); err != nil {
			return err
		}
		if _, err := be.InstallDCs("emp", datagen.EmpDCText()); err != nil {
			return err
		}
		log.Printf("preloaded dataset %q with %d tuples and the pay-scale denial constraint", "emp", nEmp)
	}
	return nil
}

// deriveIndexBudget picks a default per-dataset index budget from the
// process memory ceiling when -index-budget-mb is left unset: a quarter
// of GOMEMLIMIT when the operator set one (the daemon still needs room
// for the relations themselves, request handling and GC headroom), else
// an eighth of the machine's MemTotal from /proc/meminfo, else 0
// (unlimited — no ceiling is knowable). The divisors are deliberately
// conservative: the budget is per dataset, and a fleet of registered
// datasets shares the same process.
func deriveIndexBudget() int64 {
	// SetMemoryLimit(-1) is the documented way to read the current limit
	// without changing it; math.MaxInt64 means "no limit set".
	if limit := debug.SetMemoryLimit(-1); limit > 0 && limit < math.MaxInt64 {
		return limit / 4
	}
	if total := readMemTotal("/proc/meminfo"); total > 0 {
		return total / 8
	}
	return 0
}

// readMemTotal parses the MemTotal line of a /proc/meminfo-format file,
// returning bytes (the kernel reports kB), or 0 if unavailable.
func readMemTotal(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "MemTotal:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// logRequests is a minimal access-log middleware.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %s", r.Method, r.URL.Path, fmtDuration(time.Since(start)))
	})
}

func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}
