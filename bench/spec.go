package main

// workload is one set of inputs and traffic. The four differ in which
// layers of the daemon do the work; README.md has the table.
type workload struct {
	index int
	name  string
	why   string

	clients    int
	headline   string   // the class whose median latency is latency_p50_ms
	mix        []weight // service traffic; nil for the batch job
	batches    []int    // append batch sizes, drawn uniformly
	dirtyShare float64  // share of appended rows that need repair
	custN      int
	empN       int

	durable  bool // -data-dir, -wal-sync always, -checkpoint-every 0
	cluster  bool // coordinator in front of two workers
	job      bool // upload -> detect -> discover -> repair -> verify -> delete
	budgetMB int  // -index-budget-mb with a -spill-dir; 0 = unlimited
}

// serviceN and empN size the service datasets so the working set (the
// detection partitions plus discovery's lattice, ~17 MB) fits an
// unlimited index budget many times over.
const (
	serviceN = 20000
	empN     = 2000
)

var workloads = []*workload{
	{
		name:     "serve-mixed",
		why:      "reference mix on a durable daemon whose working set fits: large JSON reads dominate, every layer does a little",
		clients:  2,
		headline: "read",
		mix: []weight{
			{"read", 5}, {"detect", 2}, {"append", 2}, {"dc", 1}, {"edit", 0.5}, {"discover", 0.3},
		},
		batches: []int{1},
		custN:   serviceN, empN: empN,
		durable: true,
	},
	{
		name:       "ingest-durable",
		why:        "appends only, a fifth of the rows dirty: WAL fsync, incremental repair and PLI advance/patch do the work; JSON and detection none",
		clients:    2,
		headline:   "append",
		mix:        []weight{{"append", 1}},
		batches:    []int{1, 1, 1, 16, 64},
		dirtyShare: 0.2,
		custN:      serviceN, empN: empN,
		durable: true,
	},
	{
		name:     "cold-batch",
		why:      "one client cleans whole datasets on an ephemeral daemon whose index budget is smaller than discovery's lattice: cold builds, spill, batch repair; no WAL",
		clients:  1,
		custN:    coldN,
		job:      true,
		budgetMB: coldBudgetMB,
	},
	{
		name:     "cluster-mixed",
		why:      "the mix without edit and discover through a coordinator and two workers: shard RPC, wire JSON and merge dominate",
		clients:  2,
		headline: "detect", // the scatter-gather op; its median repeats within 3%, the cached read's within 12%
		mix: []weight{
			{"read", 5}, {"detect", 2}, {"append", 2}, {"dc", 1},
		},
		batches: []int{1},
		custN:   serviceN, empN: empN,
		cluster: true,
	},
}

func init() {
	for i, w := range workloads {
		w.index = i
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one named number of a run.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// coldN, coldBudgetMB and jobDatasets size the batch job: discovery's
// lattice over coldN rows is several times coldBudgetMB, so partitions
// spill and page back in, and a window still fits enough whole jobs
// for a median.
const (
	coldN        = 20000
	coldBudgetMB = 4
	jobDatasets  = 3
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rows_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload bypasses reads 0. They carry no bound: they say
// where an end-to-end change came from. README.md names, for each, the
// end-to-end metric it should move.
var perLayer = []metric{
	// Client-side latency per class under the workload's own client
	// count: end-to-end in nature, but each exists on some workloads
	// only, and an end-to-end metric here must exist on all four.
	{Name: "read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "detect_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "append_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "discover_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dc_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "clean_s", Unit: "s", Better: "lower"},
	{Name: "recovery_ms", Unit: "ms", Better: "lower"},

	{Name: "server.read_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.detect_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.append_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.read_resp_bytes", Unit: "B", Better: "lower"},
	{Name: "server.upload_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.transport_ms.read", Unit: "ms", Better: "lower"},
	{Name: "server.transport_ms.detect", Unit: "ms", Better: "lower"},
	{Name: "server.transport_ms.append", Unit: "ms", Better: "lower"},
	{Name: "server.route_avg_ms.read", Unit: "ms", Better: "lower"},
	{Name: "server.route_avg_ms.detect", Unit: "ms", Better: "lower"},
	{Name: "server.route_avg_ms.append", Unit: "ms", Better: "lower"},
	{Name: "server.route_avg_ms.dc", Unit: "ms", Better: "lower"},
	{Name: "server.route_avg_ms.discover", Unit: "ms", Better: "lower"},
	{Name: "server.shard_rpc_ms.detect", Unit: "ms", Better: "lower"},
	{Name: "server.shard_rpc_ms.groups", Unit: "ms", Better: "lower"},
	{Name: "server.shard_rpc_ms.dcs", Unit: "ms", Better: "lower"},
	{Name: "server.shard_rpc_ms.append", Unit: "ms", Better: "lower"},
	{Name: "server.shard_resp_bytes", Unit: "B", Better: "lower"},

	{Name: "engine.read_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.detect_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.append_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.edit_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.queue_ms.read", Unit: "ms", Better: "lower"},
	{Name: "engine.queue_ms.detect", Unit: "ms", Better: "lower"},
	{Name: "engine.queue_ms.append", Unit: "ms", Better: "lower"},
	{Name: "engine.coord_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.straggler_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.worker_retries", Unit: "count", Better: "lower"},
	{Name: "engine.cluster_discover_s", Unit: "s", Better: "lower"},

	{Name: "cfd.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "cfd.violations", Unit: "count", Better: "lower"},
	{Name: "cfd.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "cfd.boundary_fraction", Unit: "ratio", Better: "lower"},
	{Name: "dc.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "dc.pairs", Unit: "count", Better: "lower"},
	{Name: "discovery.warm_ms", Unit: "ms", Better: "lower"},
	{Name: "discovery.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "discovery.partitions", Unit: "count", Better: "lower"},
	{Name: "repair.inc_us_per_row", Unit: "us", Better: "lower"},
	{Name: "repair.batch_s", Unit: "s", Better: "lower"},
	{Name: "repair.changes", Unit: "count", Better: "lower"},

	{Name: "relation.build_ms_per_mrow", Unit: "ms", Better: "lower"},
	{Name: "relation.advance_us_per_row", Unit: "us", Better: "lower"},
	{Name: "relation.patch_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "relation.hit_us", Unit: "us", Better: "lower"},
	{Name: "relation.pagein_ms", Unit: "ms", Better: "lower"},
	{Name: "relation.spills", Unit: "count", Better: "lower"},
	{Name: "relation.pageins", Unit: "count", Better: "lower"},
	{Name: "relation.evictions", Unit: "count", Better: "lower"},
	{Name: "relation.misses", Unit: "count", Better: "lower"},
	{Name: "relation.refines", Unit: "count", Better: "lower"},
	{Name: "relation.advances", Unit: "count", Better: "higher"},
	{Name: "relation.patches", Unit: "count", Better: "higher"},
	{Name: "relation.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "relation.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "relation.bytes_per_row", Unit: "B", Better: "lower"},

	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.share_of_append", Unit: "ratio", Better: "lower"},
	{Name: "wal.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "wal.recover_ms_per_krec", Unit: "ms", Better: "lower"},
}
