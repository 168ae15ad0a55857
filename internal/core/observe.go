package core

// Observability wiring. The client instruments at three levels:
//
//   - operations (Put/Get/GetRange/Sync/Delete/GC/migrate) open a span via
//     Observer.StartOp, which on End feeds cyrus_op_duration_seconds{op}
//     and cyrus_ops_total{op,result};
//   - provider contacts flow through recordResult (client.go) into
//     cyrus_csp_requests_total{csp,result}, the success-latency histogram,
//     and the link-model gauges (bandwidth, latency EWMA);
//   - transfer events are bridged from the event bus by observeEvent into
//     cyrus_events_total{type} and cyrus_transfer_bytes_total{csp,dir}.
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

// observeEvent is the event→metric bridge, subscribed to the client's own
// event bus when observability is configured. Like any subscriber it must
// be fast and must not call back into the client.
func (c *Client) observeEvent(ev Event) {
	dir := ""
	switch ev.Type {
	case EvSharePut, EvMetaPut:
		dir = "up"
	case EvShareGet, EvMetaGet:
		dir = "down"
	}
	c.obs.TransferEvent(ev.Type.String(), ev.CSP, dir, ev.Bytes, ev.Err)
}
