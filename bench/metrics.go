package main

// The metric tables. BENCHMARK.json at the root of the repository lists
// the same names, units and directions, plus the regression bound of each
// end-to-end metric; bench_test.go keeps the two in step.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the system would see, per workload.
// failed_share is printed with them but is not in BENCHMARK.json: it is 0
// on every healthy run, and the result line carries attempted and failed.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"sim_us_per_op", "sim_us", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is the ledger: counts per operation from the program's own
// counters, and times from the traced run's spans and probes.
var perLayer = []metricDef{
	{"ipc.sends_per_op", "count", "lower"},
	{"ipc.handoff_ratio", "ratio", "higher"},
	{"ipc.queue_full_stalls_per_kop", "count", "lower"},
	{"ipc.dead_letters", "count", "lower"},
	{"ipc.send_recv_us", "us", "lower"},
	{"ipc.send_recv_allocs", "count", "lower"},

	{"rpc.calls_per_op", "count", "lower"},
	{"rpc.local_call_us", "us", "lower"},
	{"rpc.local_call_allocs", "count", "lower"},
	{"rpc.batch16_call_us", "us", "lower"},
	{"rpc.codec_us", "us", "lower"},
	{"rpc.handler_us", "us", "lower"},
	{"rpc.failed_calls", "count", "lower"},

	{"netmsg.forwards_per_op", "count", "lower"},
	{"netmsg.bytes_per_op", "B", "lower"},
	{"netmsg.control_msgs_per_kop", "count", "lower"},
	{"netmsg.relay_us", "us", "lower"},
	{"netmsg.lookup_cold_us", "us", "lower"},
	{"netmsg.lookup_cached_us", "us", "lower"},
	{"netmsg.proxies_live_end", "count", "lower"},

	{"vm.faults_per_op", "count", "lower"},
	{"vm.pageins_per_op", "count", "lower"},
	{"vm.pageouts_per_op", "count", "lower"},
	{"vm.cow_faults_per_op", "count", "lower"},
	{"vm.cache_hit_ratio", "ratio", "higher"},
	{"vm.read_us", "us", "lower"},
	{"vm.dealloc_us", "us", "lower"},
	{"vm.zero_fill_fault_us", "us", "lower"},
	{"vm.resident_read_us", "us", "lower"},
	{"vm.shadow_kb_per_resend", "KB", "lower"},

	{"kern.ool_send_us", "us", "lower"},
	{"kern.ool_map_us", "us", "lower"},
	{"kern.ool_cross_host_map_us", "us", "lower"},
	{"kern.ool_bytes_per_op", "B", "lower"},

	{"pager.faults_cold_per_op", "count", "lower"},
	{"pager.faults_warm_per_op", "count", "lower"},
	{"pager.evictions_per_op", "count", "lower"},
	{"pager.writebacks_per_op", "count", "lower"},
	{"pager.frame_hit_ratio", "ratio", "higher"},
	{"pager.store_read_us", "us", "lower"},
	{"pager.store_write_us", "us", "lower"},
	{"pager.framepool_self_us", "us", "lower"},
	{"pager.external_fault_us", "us", "lower"},

	{"iomgr.submitted_per_op", "count", "lower"},
	{"iomgr.ops_per_batch", "ratio", "higher"},
	{"iomgr.fsyncs_per_op", "count", "lower"},
	{"iomgr.bytes_read_per_op", "B", "lower"},
	{"iomgr.bytes_written_per_op", "B", "lower"},
	{"iomgr.errors", "count", "lower"},
	{"iomgr.volume_read_us", "us", "lower"},
	{"iomgr.volume_write_us", "us", "lower"},
	{"iomgr.pool_write_us", "us", "lower"},
	{"iomgr.pool_fsync_us", "us", "lower"},
	{"iomgr.uring_write_us", "us", "lower"},
	{"iomgr.uring_fsync_us", "us", "lower"},

	{"camelot.wal_appends_per_op", "count", "lower"},
	{"camelot.fsyncs_per_commit", "ratio", "lower"},
	{"camelot.write_us", "us", "lower"},
	{"camelot.commit_us", "us", "lower"},
	{"camelot.wal_append_force_us", "us", "lower"},
	{"camelot.recovery_us_per_record", "us", "lower"},

	{"fs.read_call_us", "us", "lower"},
	{"fs.write_call_us", "us", "lower"},
	{"fs.disk_reads_per_op", "count", "lower"},

	{"machine.net_msgs_per_op", "count", "lower"},
	{"machine.disk_ops_per_op", "count", "lower"},

	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.timer_overhead_ns", "ns", "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
