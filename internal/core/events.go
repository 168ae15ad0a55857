package core

import (
	"sync"
	"time"
)

// EventType enumerates the asynchronous transfer events of paper §5.3.
type EventType int

// Event kinds. Share-level events fire per transfer; ChunkComplete fires
// when n shares are uploaded or t downloaded; FileComplete when every chunk
// of a file has completed.
const (
	EvSharePut EventType = iota
	EvShareGet
	EvMetaPut
	EvMetaGet
	EvChunkComplete
	EvFileComplete
	// EvSyncError reports a failed best-effort metadata sync (the ones Get,
	// Put, List, … run before serving from the local tree). The operation
	// itself proceeds on the possibly-stale replica; the event is the only
	// place the failure surfaces.
	EvSyncError
	// EvMetaAbsorbed fires when a metadata record is merged into the local
	// tree — from a sync, or from a version this client published. The
	// name's fresh mark has been cleared by then.
	EvMetaAbsorbed
)

func (e EventType) String() string {
	switch e {
	case EvSharePut:
		return "PUT"
	case EvShareGet:
		return "GET"
	case EvMetaPut:
		return "PUT META"
	case EvMetaGet:
		return "GET META"
	case EvChunkComplete:
		return "CHUNK COMPLETE"
	case EvFileComplete:
		return "FILE COMPLETE"
	case EvSyncError:
		return "SYNC ERROR"
	case EvMetaAbsorbed:
		return "META ABSORBED"
	}
	return "UNKNOWN"
}

// Event is one asynchronous notification from the transfer layer.
type Event struct {
	Type    EventType
	File    string // file name (when known)
	ChunkID string // chunk content hash (share/chunk events)
	Index   int    // share index (share events)
	CSP     string // provider involved (share/meta events)
	Bytes   int64  // payload size
	// Duration is how long the operation took, measured on the client's
	// runtime clock (virtual time under netsim). Share/meta events carry
	// the single transfer's duration; ChunkComplete and FileComplete carry
	// the whole chunk/file operation's duration. Subscribers should use it
	// instead of re-deriving timing.
	Duration time.Duration
	Err      error // nil on success
}

// eventBus is a minimal synchronous fan-out. CYRUS's prototype registers an
// event receiver at the core; here any number of receivers may subscribe.
type eventBus struct {
	mu       sync.RWMutex
	handlers []func(Event)
}

func newEventBus() *eventBus { return &eventBus{} }

func (b *eventBus) subscribe(fn func(Event)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers = append(b.handlers, fn)
}

func (b *eventBus) emit(ev Event) {
	b.mu.RLock()
	hs := b.handlers
	b.mu.RUnlock()
	for _, h := range hs {
		h(ev)
	}
}
