package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/relation"
)

// The violation list is the service's one large response (~430 KB for a
// thousand violations) and is re-read far more often than it changes.
// Both routes that serve it encode it by hand, to the bytes writeJSON
// gave the map the handlers used to build (TestViolationBodyIdentity,
// FuzzViolationEncoder); GET …/violations also keeps the body per
// dataset until the engine's generation for the list moves. Splicing
// cached fragments into a map as json.RawMessage instead was measured:
// encoding/json re-validates and compacts them, 2.8 ms per body.

// appendJSON appends v as writeJSON encodes it (HTML escaping off),
// less the newline: for names and the small values of a response.
func appendJSON(dst []byte, v any) []byte {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // cannot fail on strings, numbers and the engine's plain structs
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

func appendInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// encodeViolations is the response body of both violation routes: out's
// small keys plus "tids" (every TID in vs) and "violations" (shown: vs
// or a prefix of it), in the key order encoding/json gives a map.
func encodeViolations(out map[string]any, schema *relation.Schema, vs, shown []cfd.Violation) []byte {
	tids := cfd.ViolatingTIDs(vs)
	n := len(tids)
	for _, v := range shown {
		n += len(v.TIDs)
	}
	dst := make([]byte, 0, 512+80*len(shown)+6*n) // about right for five-digit TIDs; growing instead costs a sixth more
	// Each distinct CFD, kind and attribute name is quoted once, by
	// encoding/json: strconv.AppendQuote is Go quoting, not JSON's.
	quoted := map[string][]byte{}
	name := func(s string) []byte {
		if _, ok := quoted[s]; !ok {
			quoted[s] = appendJSON(nil, s)
		}
		return quoted[s]
	}
	keys := append(slices.Collect(maps.Keys(out)), "tids", "violations")
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, name(k)...), ':')
		switch k {
		case "tids":
			dst = appendInts(dst, tids)
		case "violations":
			dst = append(dst, '[')
			for j, v := range shown {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = append(append(dst, `{"cfd":`...), name(v.CFD.Name())...)
				dst = strconv.AppendInt(append(dst, `,"row":`...), int64(v.Row), 10)
				dst = append(append(dst, `,"kind":`...), name(v.Kind.String())...)
				dst = append(append(dst, `,"attr":`...), name(schema.Attr(v.Attr).Name)...)
				dst = append(appendInts(append(dst, `,"tids":`...), v.TIDs), '}')
			}
			dst = append(dst, ']')
		default:
			dst = appendJSON(dst, out[k])
		}
	}
	return append(dst, "}\n"...)
}

func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a client that went away is not the server's error
}

// violationBody is one dataset's encoded GET …/violations response.
type violationBody struct {
	gen  uint64 // of the list it encodes; process-unique, see engine.DetectResult
	body []byte
	etag string
}

// bodyCache holds the current violationBody of every dataset that has
// been read, by name, and what /v1/stats reports about them.
type bodyCache struct {
	mu     sync.Mutex
	byName map[string]*violationBody
	counts bodyCounts
}

type bodyCounts struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	NotModified uint64 `json:"not_modified"`
	Bytes       int    `json:"bytes"` // held by the stored bodies now
}

// set replaces name's body; nil removes it.
func (c *bodyCache) set(name string, b *violationBody) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b == nil {
		delete(c.byName, name)
	} else {
		c.byName[name] = b
	}
}

func (c *bodyCache) stats() bodyCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.counts
	for _, b := range c.byName {
		st.Bytes += len(b.body)
	}
	return st
}

func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := s.dataset(w, name)
	if !ok {
		return
	}
	res, err := ds.Violations()
	if err != nil {
		writeEngineError(w, err, http.StatusInternalServerError)
		return
	}
	gen := res.Gen
	c := &s.bodies
	c.mu.Lock()
	b := c.byName[name]
	hit := b != nil && b.gen == gen
	// A tag is quoted, so it can only be contained whole: this reads a
	// list of tags and a W/ prefix alike.
	inm := r.Header.Get("If-None-Match")
	notModified := hit && (inm == "*" || strings.Contains(inm, b.etag))
	switch {
	case notModified:
		c.counts.NotModified++
	case hit:
		c.counts.Hits++
	default:
		c.counts.Misses++
	}
	c.mu.Unlock()
	if !hit {
		out := map[string]any{"count": len(res.Violations)}
		mergeInfo(out, res)
		b = &violationBody{gen: gen, body: encodeViolations(out, ds.Schema(), res.Violations, res.Violations)}
		if gen != 0 { // 0: a list the engine could not cache; serve it once, untagged
			// The crc keeps a tag from matching another process's body:
			// a restarted daemon issues the same generations again.
			b.etag = fmt.Sprintf(`"%x-%08x"`, gen, crc32.ChecksumIEEE(b.body))
			c.set(name, b)
			if _, ok := s.reg.Lookup(name); !ok {
				c.set(name, nil) // dropped meanwhile, and handleDrop's removal may have come first
			}
		}
	}
	if b.etag != "" {
		w.Header().Set("ETag", b.etag)
	}
	if notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, b.body)
}

type detectRequest struct {
	Dataset string `json:"dataset"`
	// Limit truncates the violation list in the response (0 = all);
	// count and tids always cover the full result.
	Limit int `json:"limit,omitempty"`
}

// handleDetect always encodes the result of the detection it ran, never
// a stored body: a client comparing the served list with a fresh detect
// must be comparing two things.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var req detectRequest
	if !decode(w, r, &req) {
		return
	}
	ds, ok := s.dataset(w, req.Dataset)
	if !ok {
		return
	}
	start := time.Now()
	res, err := ds.Detect()
	if err != nil {
		writeEngineError(w, err, http.StatusInternalServerError)
		return
	}
	vs, shown := res.Violations, res.Violations
	if req.Limit > 0 && len(shown) > req.Limit {
		shown = shown[:req.Limit]
	}
	out := map[string]any{
		"count":      len(vs),
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	}
	mergeInfo(out, res)
	if res.Workers != nil {
		out["workers"] = res.Workers
	}
	writeBody(w, encodeViolations(out, ds.Schema(), vs, shown))
}
