package main

import (
	"regexp"

	"repro/mach"
)

// The count half of the per-layer ledger: every count is a difference of
// the program's own counters across the measured rounds, divided by the
// operations attempted in them. Counts compare two versions of one
// program and leave waiting out; they cannot flake the way a wall-clock
// number can.

// ledgerSample is the state of every counter the ledger reads.
type ledgerSample struct {
	obs     mach.MetricsSnapshot
	vm      mach.VMStatistics // summed over the workload's kernels
	netMsgs int64             // messages charged to the interconnects
	simDisk int64             // operations on simulated disks
	fsReads int64             // reads of the workload's own disks
}

func takeLedger(w *world) ledgerSample {
	s := ledgerSample{obs: mach.Metrics()}
	topos := map[*mach.Topology]bool{}
	for _, k := range w.kernels {
		st := k.Statistics()
		s.vm.Faults += st.Faults
		s.vm.Pageins += st.Pageins
		s.vm.Pageouts += st.Pageouts
		s.vm.CowFaults += st.CowFaults
		s.vm.Lookups += st.Lookups
		s.vm.Hits += st.Hits
		if t := k.Topology(); !topos[t] {
			topos[t] = true
			ns := t.Stats()
			s.netMsgs += ns.LocalMessages + ns.RemoteMessages
		}
		// A kernel booted without a PagingStore pages to a simulated
		// disk of its own.
		if dp := k.DefaultPager(); dp != nil {
			if d, ok := dp.Store().(*mach.Disk); ok {
				ds := d.Stats()
				s.simDisk += ds.Reads + ds.Writes
			}
		}
	}
	for _, d := range w.disks {
		ds := d.Stats()
		s.simDisk += ds.Reads + ds.Writes
		s.fsReads += ds.Reads
	}
	return s
}

var (
	reIPC    = regexp.MustCompile(`^host\d+\.ipc\.(\w+)$`)
	reRPC    = regexp.MustCompile(`^host\d+\.rpc\.msg-?\d+\.calls$`)
	reNetmsg = regexp.MustCompile(`^host\d+\.netmsg\.peer\d+\.(\w+)$`)
	reProxy  = regexp.MustCompile(`^host\d+\.netmsg\.proxies$`)
)

// ledgerCounts turns two samples into the count metrics. ops is the
// number of operations attempted between them.
func ledgerCounts(w *world, before, after ledgerSample, ops uint64) map[string]float64 {
	d := after.obs.Diff(before.obs)
	ipc := map[string]float64{}
	net := map[string]float64{}
	var rpcCalls float64
	for name, v := range d.Counters {
		if m := reIPC.FindStringSubmatch(name); m != nil {
			ipc[m[1]] += float64(v)
		} else if reRPC.MatchString(name) {
			rpcCalls += float64(v)
		} else if m := reNetmsg.FindStringSubmatch(name); m != nil {
			net[m[1]] += float64(v)
		}
	}
	var proxies float64
	for name, v := range after.obs.Gauges {
		if reProxy.MatchString(name) {
			proxies += float64(v)
		}
	}
	c := func(name string) float64 { return float64(d.Counters[name]) }
	n := float64(ops)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perOp := func(after, before int64) float64 { return float64(after-before) / n }
	return map[string]float64{
		"ipc.sends_per_op":              ipc["sends"] / n,
		"ipc.handoff_ratio":             ratio(ipc["handoffs"], ipc["sends"]),
		"ipc.queue_full_stalls_per_kop": 1000 * ipc["queue_full_stalls"] / n,
		"ipc.dead_letters":              ipc["dead_letters"],

		"rpc.calls_per_op": rpcCalls / n,
		"rpc.failed_calls": float64(w.rpcFailed.Load()),

		"netmsg.forwards_per_op":      net["msgs"] / n,
		"netmsg.bytes_per_op":         net["bytes"] / n,
		"netmsg.control_msgs_per_kop": 1000 * net["control_msgs"] / n,
		"netmsg.proxies_live_end":     proxies,

		"vm.faults_per_op":     perOp(after.vm.Faults, before.vm.Faults),
		"vm.pageins_per_op":    perOp(after.vm.Pageins, before.vm.Pageins),
		"vm.pageouts_per_op":   perOp(after.vm.Pageouts, before.vm.Pageouts),
		"vm.cow_faults_per_op": perOp(after.vm.CowFaults, before.vm.CowFaults),
		"vm.cache_hit_ratio":   ratio(perOp(after.vm.Hits, before.vm.Hits), perOp(after.vm.Lookups, before.vm.Lookups)),

		"kern.ool_bytes_per_op": float64(w.oolBytes.Load()) / n,

		"pager.faults_cold_per_op": c("pager.faults_cold") / n,
		"pager.faults_warm_per_op": c("pager.faults_warm") / n,
		"pager.evictions_per_op":   c("pager.evictions") / n,
		"pager.writebacks_per_op":  c("pager.writebacks") / n,
		"pager.frame_hit_ratio":    ratio(c("pager.faults_warm"), c("pager.faults_warm")+c("pager.faults_cold")),

		"iomgr.submitted_per_op":     c("iomgr.submitted") / n,
		"iomgr.ops_per_batch":        ratio(c("iomgr.submitted"), c("iomgr.batches")),
		"iomgr.fsyncs_per_op":        c("iomgr.fsyncs") / n,
		"iomgr.bytes_read_per_op":    c("iomgr.bytes_read") / n,
		"iomgr.bytes_written_per_op": c("iomgr.bytes_written") / n,
		"iomgr.errors":               c("iomgr.errors"),

		"camelot.wal_appends_per_op": c("camelot.wal_appends") / n,
		// Every operation of durable_commit is one commit.
		"camelot.fsyncs_per_commit": c("camelot.wal_fsyncs") / n,

		"fs.disk_reads_per_op": perOp(after.fsReads, before.fsReads),

		"machine.net_msgs_per_op": perOp(after.netMsgs, before.netMsgs),
		"machine.disk_ops_per_op": perOp(after.simDisk, before.simDisk),
	}
}
