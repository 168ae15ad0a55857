package core

// Observability wiring. The client records each fact once, at one of four
// levels:
//
//   - operations (Put/Get/GetRange/Sync/Delete/GC/migrate) open a span via
//     Observer.StartOp, which on End feeds
//     cyrus_op_duration_seconds{op,result} (its _count is the op count);
//   - provider contacts flow through recordResult (client.go) into
//     cyrus_csp_request_duration_seconds{csp,result} (its _count is the
//     request count), cyrus_transfer_bytes_total{csp,dir} and the
//     link-model gauges (bandwidth, latency EWMA);
//   - the transfer engine records each try once, as an attempt.start /
//     attempt.end flight-event pair stamped with the enclosing span;
//   - the repairs the client makes on its own (corrected shares, re-placed
//     metadata, a skipped CAS sweep) are one
//     "note" flight event each (Observer.Note).
//
// All of it is inert when Config.Obs is nil, and none of it is read back:
// the client behaves the same with or without an observer.

// Provider-contact operation identifiers for recordResult. Chunk-share
// transfers ("upload"/"download") feed the bandwidth estimates; metadata
// and control-plane contacts ("meta_put"/"meta_get"/"list"/"delete") are
// latency-dominated small objects and feed only the failure estimator, the
// latency EWMA and the counters.
const (
	opUpload   = "upload"
	opDownload = "download"
	opMetaPut  = "meta_put"
	opMetaGet  = "meta_get"
	opList     = "list"
	opDelete   = "delete"
	opRef      = "ref" // reference-token ops on content-addressed shares
)

// opDir is the cyrus_transfer_bytes_total direction of a provider-contact
// operation: payload moves up for uploads and metadata puts, down for
// downloads and metadata gets, and not at all ("") for the rest.
func opDir(op string) string {
	switch op {
	case opUpload, opMetaPut:
		return "up"
	case opDownload, opMetaGet:
		return "down"
	}
	return ""
}
