package main

// endToEndUnits are the metrics an untraced run reports, by name. They
// match "end_to_end" in BENCHMARK.json (a test holds the two together).
var endToEndUnits = map[string]string{
	"throughput_ops_s":         "cells/s",
	"p50_light_ms":             "ms",
	"p90_light_ms":             "ms",
	"p50_heavy_ms":             "ms",
	"setup_s":                  "s",
	"recovery_s":               "s",
	"peak_rss_mb":              "MiB",
	"disk_bytes_per_user_byte": "ratio",
}

// layerUnits are the metrics a traced run reports, by name. They match
// "per_layer" in BENCHMARK.json. A metric of a layer the workload does not
// use reads 0.
var layerUnits = map[string]string{
	"tabled.client.batch_us":                "us",
	"tabled.client.self_us":                 "us",
	"net.roundtrip_us":                      "us",
	"net.self_us":                           "us",
	"tabled.server.request_us":              "us",
	"tabled.server.self_us":                 "us",
	"tabled.exec.get_ns_per_cell":           "ns/cell",
	"tabled.exec.set_ns_per_cell":           "ns/cell",
	"walog.sync_us":                         "us",
	"walog.syncs_per_append":                "ratio",
	"walog.bytes_per_cell":                  "bytes/cell",
	"walog.sync_share":                      "fraction",
	"tabled.repl.ack_waits_per_write_batch": "ratio",
	"tabled.repl.records_per_pull":          "records",
	"tabled.repl.lag_records_end":           "records",
	"cluster.request_us":                    "us",
	"cluster.subbatch_us":                   "us",
	"cluster.self_us":                       "us",
	"cluster.subbatches_per_batch":          "ratio",
	"cluster.ops_per_subbatch":              "ops",
	"proc.server_cpu_us_per_cell":           "us/cell",
	"proc.router_cpu_us_per_cell":           "us/cell",
	"proc.loadgen_cpu_us_per_cell":          "us/cell",
	"core.encode_ns_per_cell":               "ns/cell",
	"tabled.sharded.get_ns_per_cell":        "ns/cell",
	"tabled.sharded.set_ns_per_cell":        "ns/cell",
	"extarray.footprint_per_cell":           "addrs/cell",
	"tabled.codec.request_ns_per_op":        "ns/op",
	"tabled.codec.response_ns_per_op":       "ns/op",
	"cluster.partition_ns_per_op":           "ns/op",
	"tracing.overhead_frac":                 "fraction",
}

// withUnits pairs each value with its unit from units. A value missing
// from units, or a unit missing from values, is a bug in the harness.
func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	if len(values) != len(units) {
		panic("bench: metric set does not match its unit table")
	}
	out := make(map[string]metric, len(values))
	for name, v := range values {
		u, ok := units[name]
		if !ok {
			panic("bench: no unit for metric " + name)
		}
		out[name] = metric{v, u}
	}
	return out
}
