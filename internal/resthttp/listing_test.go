package resthttp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/csp"
)

// objectInfoJSON is the listing entry as encoding/json sees it — the
// reference the fixed-schema codec is held to.
type objectInfoJSON struct {
	Name     string    `json:"name"`
	Size     int64     `json:"size"`
	Modified time.Time `json:"modified"`
}

// referenceEncode is what the server emitted before the codec: json.Encoder
// over the struct slice.
func referenceEncode(t testing.TB, infos []csp.ObjectInfo) []byte {
	t.Helper()
	out := make([]objectInfoJSON, 0, len(infos))
	for _, i := range infos {
		out = append(out, objectInfoJSON{Name: i.Name, Size: i.Size, Modified: i.Modified})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceDecode is json.Unmarshal into the struct slice.
func referenceDecode(data []byte) ([]csp.ObjectInfo, error) {
	var raw []objectInfoJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	out := make([]csp.ObjectInfo, 0, len(raw))
	for _, o := range raw {
		out = append(out, csp.ObjectInfo{Name: o.Name, Size: o.Size, Modified: o.Modified})
	}
	return out, nil
}

func sameListing(a, b []csp.ObjectInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// == on the wall-clock fields: same instant, same zone offset
		// (Equal alone would let a lost offset through).
		if a[i].Name != b[i].Name || a[i].Size != b[i].Size || !a[i].Modified.Equal(b[i].Modified) ||
			a[i].Modified.Format(time.RFC3339Nano) != b[i].Modified.Format(time.RFC3339Nano) {
			return false
		}
	}
	return true
}

// awkwardNames are object names that exercise every branch of the string
// escaper.
var awkwardNames = []string{
	"", "plain", "cyrus-meta-0a1b2c3d-5e6f.s3", `quote"and\backslash`, "tab\tnl\ncr\rbs\bff\f", "nul\x00esc\x1bdel\x7f",
	"<script>&amp;</script>", "line\u2028sep\u2029para", "café 世界 \U0001f600", "bad\xffutf8\xc3", "\xe2\x80", "trailing\\",
	"/slashes/stay/plain", strings.Repeat("long ", 200),
}

// TestListingEncoderMatchesEncodingJSON: the bytes on the wire are the ones
// json.Encoder produced, so an old client reads a new server unchanged.
func TestListingEncoderMatchesEncodingJSON(t *testing.T) {
	est := time.FixedZone("EST", -5*3600)
	times := []time.Time{
		{}, time.Unix(0, 0).UTC(), time.Unix(1700000000, 123456789).UTC(), time.Unix(1700000000, 120000000).In(est),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Unix(1700000000, 0).In(time.FixedZone("", 5*3600+1800)),
	}
	var infos []csp.ObjectInfo
	for i, name := range awkwardNames {
		infos = append(infos, csp.ObjectInfo{Name: name, Size: int64(i) * 1234567, Modified: times[i%len(times)]})
	}
	infos = append(infos, csp.ObjectInfo{Name: "negative", Size: -1}, csp.ObjectInfo{Name: "max", Size: 1<<63 - 1})
	for _, list := range [][]csp.ObjectInfo{nil, {}, infos[:1], infos} {
		got, err := appendListing(nil, list)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEncode(t, list); !bytes.Equal(got, want) {
			t.Errorf("appendListing(%d entries) =\n%s\nencoding/json =\n%s", len(list), got, want)
		}
		back, err := decodeListing(got)
		if ref, _ := referenceDecode(got); err != nil || !sameListing(back, ref) {
			t.Errorf("decodeListing(appendListing(%d entries)) = %v, %v; encoding/json reads %v", len(list), back, err, ref)
		}
	}
	// A time RFC 3339 cannot carry fails the listing, as it failed json.Encoder.
	if _, err := appendListing(nil, []csp.ObjectInfo{{Name: "y10k", Modified: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}}); err == nil {
		t.Error("appendListing accepted a year-10000 timestamp")
	}
}

// TestListingDecoderIsStrict: the schema is closed. Member order and
// insignificant whitespace are free; everything else encoding/json would
// tolerate (unknown or repeated members, other key spellings, nulls,
// trailing data) is a bad listing — and whatever is accepted reads the same.
func TestListingDecoderIsStrict(t *testing.T) {
	const ts = `"2024-05-06T07:08:09.5+02:00"`
	for _, tc := range []struct {
		doc string
		ok  bool
	}{
		{`[]`, true},
		{" \t\r\n[ ] \n", true},
		{`[{"name":"a","size":1,"modified":` + ts + `}]`, true},
		{`[ { "modified" : ` + ts + ` , "size" : 0 , "name" : "a\/bé😀\ud800x" } , {"size":-0,"name":"","modified":` + ts + `} ]`, true},
		{``, false},
		{`null`, false},
		{`[null]`, false},
		{`{}`, false},
		{`[{}]`, false},
		{`[{"name":"a","size":1}]`, false},
		{`[{"name":"a","size":1,"modified":` + ts + `,"etag":"x"}]`, false},
		{`[{"name":"a","name":"b","size":1,"modified":` + ts + `}]`, false},
		{`[{"Name":"a","size":1,"modified":` + ts + `}]`, false},
		{`[{"n\u0061me":"a","size":1,"modified":` + ts + `}]`, false},
		{`[{"name":null,"size":1,"modified":` + ts + `}]`, false},
		{`[{"name":"a","size":1.0,"modified":` + ts + `}]`, false},
		{`[{"name":"a","size":1e3,"modified":` + ts + `}]`, false},
		{`[{"name":"a","size":01,"modified":` + ts + `}]`, false},
		{`[{"name":"a","size":"1","modified":` + ts + `}]`, false},
		{`[{"name":"a","size":9223372036854775808,"modified":` + ts + `}]`, false},
		{`[{"name":"a","size":1,"modified":"2024-05-06 07:08:09"}]`, false},
		{`[{"name":"a","size":1,"modified":"2024-05-06T07:08:09"}]`, false},
		{`[{"name":"a","size":1,"modified":"2024-05-06T07:08:09\u005a"}]`, false},
		{`[{"name":"a","size":1,"modified":0}]`, false},
		{`[{"name":"a\qb","size":1,"modified":` + ts + `}]`, false},
		{`[{"name":"a\u12g4","size":1,"modified":` + ts + `}]`, false},
		{"[{\"name\":\"raw\ttab\",\"size\":1,\"modified\":" + ts + `}]`, false},
		{"[{\"name\":\"raw\xffbyte\",\"size\":1,\"modified\":" + ts + `}]`, false},
		{`[{"name":"unterminated,"size":1}]`, false},
		{`[{"name":"a","size":1,"modified":` + ts + `},]`, false},
		{`[{"name":"a","size":1,"modified":` + ts + `,}]`, false},
		{`[{"name":"a","size":1,"modified":` + ts + `}] x`, false},
		{`[{"name":"a","size":1,"modified":` + ts + `}`, false},
		{`[{"name":"a" "size":1,"modified":` + ts + `}]`, false},
	} {
		got, err := decodeListing([]byte(tc.doc))
		if (err == nil) != tc.ok {
			t.Errorf("decodeListing(%s) err = %v, want ok = %v", tc.doc, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		if ref, rerr := referenceDecode([]byte(tc.doc)); rerr != nil || !sameListing(got, ref) {
			t.Errorf("decodeListing(%s) = %v; encoding/json reads %v, %v", tc.doc, got, ref, rerr)
		}
	}
}

// FuzzListDecode: for any input the scanner either refuses it or returns what
// json.Unmarshal returns; and a name the fuzzer invents survives
// encode -> decode exactly as it survives encoding/json (that is: intact,
// unless it is not valid UTF-8). Seeds: testdata/fuzz/FuzzListDecode.
func FuzzListDecode(f *testing.F) {
	for _, name := range awkwardNames {
		doc, _ := appendListing(nil, []csp.ObjectInfo{{Name: name, Size: 7, Modified: time.Unix(1700000000, 5).UTC()}})
		f.Add(doc, name)
	}
	f.Fuzz(func(t *testing.T, doc []byte, name string) {
		if got, err := decodeListing(doc); err == nil {
			ref, rerr := referenceDecode(doc)
			if rerr != nil {
				t.Fatalf("decodeListing accepted %q, encoding/json refuses it: %v", doc, rerr)
			}
			if !sameListing(got, ref) {
				t.Fatalf("decodeListing(%q) = %v, encoding/json reads %v", doc, got, ref)
			}
		}

		in := []csp.ObjectInfo{{Name: name, Size: int64(len(doc)), Modified: time.Unix(int64(len(name)), int64(len(doc))).UTC()}}
		enc, err := appendListing(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEncode(t, in); !bytes.Equal(enc, want) {
			t.Fatalf("appendListing(%q) = %s, encoding/json emits %s", name, enc, want)
		}
		back, err := decodeListing(enc)
		if err != nil {
			t.Fatalf("decodeListing refuses appendListing's own %s: %v", enc, err)
		}
		want := in
		if !utf8.ValidString(name) {
			// JSON cannot carry it: each invalid byte arrives as U+FFFD,
			// exactly as through encoding/json.
			want, _ = referenceDecode(enc)
		}
		if !sameListing(back, want) {
			t.Fatalf("name %q came back as %q", name, back[0].Name)
		}
	})
}
