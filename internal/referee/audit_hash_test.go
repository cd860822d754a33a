package referee

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
)

// hashEntry is the audit hash's oracle: the json.Marshal path the log's
// encoder-backed digest replaced. It marshals the entry with Hash cleared
// into a fresh slice and hex-encodes the SHA-256 of those bytes.
func hashEntry(e AuditEntry) string {
	e.Hash = ""
	payload, err := json.Marshal(e)
	if err != nil {
		panic("referee: audit entry not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// auditHashCases are entries whose JSON encoding takes every escaping
// path json.Marshal has: HTML-special characters, invalid UTF-8 (which
// Marshal replaces with U+FFFD), the JSON-hostile line separators U+2028
// and U+2029, control characters, quotes and backslashes, and guilty
// lists empty, nil and long.
var auditHashCases = []AuditEntry{
	{},
	{Seq: 1, Action: "verdict", Phase: "bidding", Guilty: []string{"P2"}, Detail: "equivocation", PrevHash: genesisHash},
	{Seq: 2, Action: "verdict", Phase: "payments", Round: "s1:r2/i3of4", Guilty: []string{"P1", "P3", "P16"}, Detail: "payment vector disagrees with recomputation"},
	{Seq: 3, Action: "meter", Phase: "processing", Detail: "<script>alert('x')</script> & \"quoted\" \\ back"},
	{Seq: 4, Action: "eviction", Phase: "bidding", Guilty: []string{}, Detail: "P4 evicted: unreachable"},
	{Seq: 5, Action: "verdict", Phase: "bidding", Round: "r\xff\xfe", Guilty: []string{"P\xc3", "\x80"}, Detail: "invalid \xed\xa0\x80 UTF-8"},
	{Seq: 6, Action: "meter", Phase: "processing", Detail: "line\u2028sep\u2029para\nnew\ttab\x00nul\x1f"},
	{Seq: -7, Action: "φ", Phase: "日本", Round: "<>&", Guilty: []string{"<P1>", "P&2", "\u2028"}, Detail: strings.Repeat("é", 300)},
}

// TestAuditDigestMatchesMarshal is the differential test of the log's
// encoder-backed digest against the json.Marshal oracle, on the escaping
// cases above and on random entries drawn from a hostile alphabet; each
// entry is hashed twice through one log, so the reused encoder and
// buffer carry nothing from one entry into the next.
func TestAuditDigestMatchesMarshal(t *testing.T) {
	var l AuditLog
	check := func(e AuditEntry) {
		t.Helper()
		e.Hash = "stale hash, excluded from the digest"
		want := hashEntry(e)
		for pass := 0; pass < 2; pass++ {
			if h := l.digest(&e); string(h[:]) != want {
				t.Fatalf("digest of %+v is %s, json.Marshal path %s", e, h[:], want)
			}
		}
		if e.Hash != "stale hash, excluded from the digest" {
			t.Fatal("digest modified the entry it hashed")
		}
	}
	for _, e := range auditHashCases {
		check(e)
	}
	alphabet := []string{"a", "Z", "<", ">", "&", "\"", "\\", "\n", "\x00", "\x7f", "\xff", "\xc3", "é", "\u2028", "\u2029", "\U0001F600", " ", "φ"}
	word := func(rng *rand.Rand) string {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 500; i++ {
		e := AuditEntry{Seq: rng.Intn(1 << 20), Action: word(rng), Phase: word(rng), Round: word(rng), Detail: word(rng), PrevHash: word(rng)}
		if n := rng.Intn(4); n > 0 {
			e.Guilty = make([]string, n)
			for j := range e.Guilty {
				e.Guilty[j] = word(rng)
			}
		}
		check(e)
	}
}

// TestAuditAppendHashesAsMarshal pins that a chain built by Append
// carries the oracle's hashes, links included.
func TestAuditAppendHashesAsMarshal(t *testing.T) {
	var l AuditLog
	for _, c := range auditHashCases {
		e := l.AppendRound(c.Round, c.Action, c.Phase, c.Guilty, c.Detail)
		if want := hashEntry(e); e.Hash != want {
			t.Fatalf("entry %d hash %s, json.Marshal path %s", e.Seq, e.Hash, want)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditAppendAllocs pins the append path's cost: once the log's
// encoder and buffer are warm and its entries reserved, sealing an entry
// allocates only the entry's hex hash string.
func TestAuditAppendAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race runtime makes sync.Pool drop the encoder's state at random")
	}
	l := AuditLog{entries: make([]AuditEntry, 0, 256)}
	l.Append("meter", "processing", nil, "P1 reported φ=0.5")
	allocs := testing.AllocsPerRun(100, func() {
		l.AppendRound("s1:r2", "meter", "processing", nil, "P2 reported φ=0.25")
	})
	if allocs > 1 {
		t.Fatalf("AppendRound allocated %.1f times per entry, want at most 1 (the hash string)", allocs)
	}
}

// raceEnabled reports whether the test binary was built with -race,
// whose runtime skews allocation counts.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
