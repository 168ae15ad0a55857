package resthttp

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/csp"
)

// Caps of POST /v1/batch. They are protocol constants, not knobs: the
// connector splits a longer want-list into several requests, the server
// refuses (413) what passes them, and neither side sizes memory from a
// length it has not checked against them.
const (
	// maxBatchNames is the most object names one request may carry.
	maxBatchNames = 1024
	// maxBatchRequestBytes bounds the request body (the JSON name array).
	maxBatchRequestBytes = 1 << 20
	// maxBatchResponseBytes bounds the response body: every frame, headers
	// included. A batch is for many small objects (metadata shares are a
	// few hundred bytes); bulk data goes through GET, which streams.
	maxBatchResponseBytes = 64 << 20
)

// A batch response is a sequence of frames, one per object the provider
// holds, absent objects simply omitted:
//
//	uvarint len(name) | name | uvarint len(body) | body
//
// Lengths are minimal uvarints, so every response has exactly one encoding.

// batchFrameLen is the encoded size of one frame.
func batchFrameLen(name string, body []byte) int {
	var scratch [binary.MaxVarintLen64]byte
	return binary.PutUvarint(scratch[:], uint64(len(name))) + len(name) +
		binary.PutUvarint(scratch[:], uint64(len(body))) + len(body)
}

// appendBatchFrame appends one frame to dst.
func appendBatchFrame(dst []byte, name string, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

var errBadFrame = errors.New("bad batch frame")

// decodeBatchFrames walks the frames of one response body and hands each to
// frame; name and body alias data. A declared length is only ever compared
// with the bytes that remain — nothing is allocated from it — and a length
// not in minimal form, or running past the end, fails the whole body.
func decodeBatchFrames(data []byte, frame func(name, body []byte) error) error {
	field := func() ([]byte, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 || (n > 1 && data[n-1] == 0) || v > uint64(len(data)-n) {
			return nil, false
		}
		f := data[n : n+int(v) : n+int(v)]
		data = data[n+int(v):]
		return f, true
	}
	for len(data) > 0 {
		name, ok := field()
		if !ok {
			return errBadFrame
		}
		body, ok := field()
		if !ok {
			return errBadFrame
		}
		if err := frame(name, body); err != nil {
			return err
		}
	}
	return nil
}

// handleBatch serves POST /v1/batch: many small objects in one round trip.
// It dispatches through csp.DownloadBatch, so a backend with a native batch
// call uses it and any other store is read object by object on this side of
// the socket.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorized(r) {
		http.Error(w, "bad token", http.StatusUnauthorized)
		return
	}
	// Refused on the declared length alone, then on what was actually
	// sent, then on the name count: all before the store is touched.
	if r.ContentLength > maxBatchRequestBytes {
		http.Error(w, "batch request too large", http.StatusRequestEntityTooLarge)
		return
	}
	raw, err := readCapped(r.Body, r.ContentLength, maxBatchRequestBytes)
	switch {
	case errors.Is(err, errTooLarge):
		http.Error(w, "batch request too large", http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var names []string
	if err := json.Unmarshal(raw, &names); err != nil {
		http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(names) > maxBatchNames {
		http.Error(w, "too many names in one batch", http.StatusRequestEntityTooLarge)
		return
	}
	objs, err := csp.DownloadBatch(r.Context(), s.store, names)
	if err != nil {
		writeErr(w, err)
		return
	}
	size := 0
	for name, body := range objs {
		size += batchFrameLen(name, body)
	}
	if size > maxBatchResponseBytes {
		http.Error(w, "batch response too large; fetch the objects one by one", http.StatusRequestEntityTooLarge)
		return
	}
	buf := make([]byte, 0, size)
	for _, name := range names {
		if body, ok := objs[name]; ok {
			buf = appendBatchFrame(buf, name, body)
			delete(objs, name) // a name asked for twice is answered once
		}
	}
	writeSized(w, "application/octet-stream", buf)
}

// DownloadBatch implements csp.BatchDownloader over POST /v1/batch: one
// round trip per maxBatchNames names. The answer is checked against the
// question — a frame naming an object that was not asked for, or naming one
// twice, fails the call, as does a body that ends mid-frame — so a caller
// never files bytes under a name the provider chose. A provider that will not
// serve the batch — it lacks the route (404) or the batch passes its caps
// (413) — yields csp.ErrNotFound: a definite answer that neither is retried
// nor indicts the provider, so the caller's per-object fallback still reads
// from it.
func (s *Store) DownloadBatch(ctx context.Context, names []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(names))
	for len(names) > 0 {
		n := min(len(names), maxBatchNames)
		if err := s.downloadBatch(ctx, names[:n], out); err != nil {
			return nil, err
		}
		names = names[n:]
	}
	return out, nil
}

// downloadBatch fetches one request's worth of names into out.
func (s *Store) downloadBatch(ctx context.Context, names []string, out map[string][]byte) error {
	req, err := json.Marshal(names)
	if err != nil {
		return err
	}
	resp, err := s.do(ctx, http.MethodPost, "/v1/batch", bytes.NewReader(req))
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusRequestEntityTooLarge:
		// Refused, not failed: the provider is up and serves the same
		// objects one by one.
		drainClose(resp.Body)
		return fmt.Errorf("%w: %s: batch refused as too large", csp.ErrNotFound, s.name)
	default:
		return s.mapStatus(resp)
	}
	defer drainClose(resp.Body)
	data, err := readCapped(resp.Body, resp.ContentLength, maxBatchResponseBytes)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, s.name, err)
	}
	pending := make(map[string]struct{}, len(names)) // asked for, not yet answered
	for _, name := range names {
		pending[name] = struct{}{}
	}
	err = decodeBatchFrames(data, func(name, body []byte) error {
		key := string(name)
		if _, ok := pending[key]; !ok {
			return fmt.Errorf("batch frame names %q, which was not requested or was already sent", key)
		}
		delete(pending, key)
		out[key] = body
		return nil
	})
	if err != nil {
		return fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, s.name, err)
	}
	return nil
}

var _ csp.BatchDownloader = (*Store)(nil)
