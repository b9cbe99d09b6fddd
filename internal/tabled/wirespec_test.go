package tabled

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pairfn/internal/core"
	"pairfn/internal/obs"
)

// TestWireSpecExamples pins docs/WIRE.md to the codec: every
// ```wire-example``` block in the spec names a canonical batch, and the
// hex bytes printed there must be EXACTLY what the encoder produces (and
// must decode back). If the codec changes framing, this fails until the
// spec's examples are regenerated — the spec cannot drift silently.
func TestWireSpecExamples(t *testing.T) {
	// The canonical example batches, one per named block in the spec.
	requests := map[string][]Op{
		"request-set-get": {
			{Op: "set", X: 2, Y: 3, V: "hi"},
			{Op: "get", X: 2, Y: 3},
		},
		"request-resize-dims": {
			{Op: "resize", Rows: 200, Cols: 100},
			{Op: "dims"},
		},
	}
	responses := map[string][]OpResult{
		"response-set-get": {
			{OK: true},
			{OK: true, Found: true, V: "hi"},
		},
		"response-resize-dims": {
			{OK: true},
			{OK: true, Rows: 200, Cols: 100},
		},
		"response-error": {
			{Err: "out of bounds"},
		},
	}

	// §7 exchange envelopes: the request is encoded by the pool's encoder;
	// each reply is what a member's exchange loop writes for the §7
	// request example, so the member is pinned, not an encoder copy. The
	// member answering 200 logs to a fresh WAL, so its set is record 0 and
	// the reply's position is 1.
	exchangeKey, exchangeOps := "k1", requests["request-set-get"]
	exchangeReplies := map[string]ServerOptions{
		"exchange-reply-ok":      {WAL: openTestWAL(t, nil)},
		"exchange-reply-refusal": {MaxBatch: 1},
	}

	// §8 pull envelopes: the request is the follower's encoder's; each
	// reply is what a primary's pull loop writes for it — one holding §3's
	// set as record 0, and the same primary once a checkpoint has moved
	// its log base past it.
	pullRequest := appendPullRequest(nil, 0, 0, DefaultReplWait, DefaultReplMaxBytes)
	pullReplies := map[string]bool{"pull-reply-ok": false, "pull-reply-refusal": true}

	examples := parseWireExamples(t, filepath.Join("..", "..", "docs", "WIRE.md"))
	if want := len(requests) + len(responses) + 1 + len(exchangeReplies) + 1 + len(pullReplies); len(examples) != want {
		t.Errorf("spec has %d wire-example blocks, test knows %d — add the new example here",
			len(examples), want)
	}
	exchangeRequest, err := appendExchangeRequest(nil, exchangeKey, 0, exchangeOps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(examples["exchange-request"], exchangeRequest) {
		t.Errorf("exchange-request: spec bytes diverge from encoder:\n spec:    % x\n encoder: % x",
			examples["exchange-request"], exchangeRequest)
	}
	for name, opt := range exchangeReplies {
		table, err := NewSharded[string](core.SquareShell{}, 4, slabStore, 64, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		var reply bytes.Buffer
		bw := bufio.NewWriter(&reply)
		s := newExchangeServer(table, opt)
		s.exchange(context.Background(), bufio.NewReader(bytes.NewReader(exchangeRequest)), bw,
			new(wireScratch), s.batchRoute, "")
		bw.Flush()
		if !bytes.Equal(examples[name], reply.Bytes()) {
			t.Errorf("%s: spec bytes diverge from the member's reply:\n spec:   % x\n member: % x",
				name, examples[name], reply.Bytes())
		}
	}

	if !bytes.Equal(examples["pull-request"], pullRequest) {
		t.Errorf("pull-request: spec bytes diverge from encoder:\n spec:    % x\n encoder: % x",
			examples["pull-request"], pullRequest)
	}
	for name, checkpointed := range pullReplies {
		w := openTestWAL(t, nil)
		if err := w.AppendSet([]Cell[string]{{X: 2, Y: 3, V: "hi"}}); err != nil {
			t.Fatal(err)
		}
		if checkpointed {
			if err := w.CheckpointSeq(func(uint64) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		var reply bytes.Buffer
		bw := bufio.NewWriter(&reply)
		rp := &Repl{WAL: w}
		if !rp.exchange(context.Background(), bufio.NewReader(bytes.NewReader(pullRequest)), bw,
			obs.NewRequests(nil, nil).Route(ReplFramesPath), "") {
			t.Fatalf("%s: the primary did not answer the pull", name)
		}
		bw.Flush()
		if !bytes.Equal(examples[name], reply.Bytes()) {
			t.Errorf("%s: spec bytes diverge from the primary's reply:\n spec:    % x\n primary: % x",
				name, examples[name], reply.Bytes())
		}
	}

	for name, specBytes := range examples {
		name, specBytes := name, specBytes
		t.Run(name, func(t *testing.T) {
			var got []byte
			var err error
			switch {
			case strings.HasPrefix(name, "exchange-"), strings.HasPrefix(name, "pull-"):
				return // checked above
			case requests[name] != nil:
				got, err = AppendBatchRequest(nil, requests[name])
			case responses[name] != nil:
				got, err = AppendBatchResponse(nil, responses[name])
			default:
				t.Fatalf("spec block %q has no canonical batch in this test", name)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, specBytes) {
				t.Fatalf("spec bytes diverge from encoder:\n spec:    % x\n encoder: % x", specBytes, got)
			}
			// And the spec bytes decode back to the canonical batch.
			if ops := requests[name]; ops != nil {
				dec, err := DecodeBatchRequest(specBytes, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(dec) != len(ops) {
					t.Fatalf("decoded %d ops, want %d", len(dec), len(ops))
				}
				for i := range dec {
					if dec[i] != ops[i] {
						t.Errorf("op %d: %+v, want %+v", i, dec[i], ops[i])
					}
				}
			} else {
				res := responses[name]
				dec, err := DecodeBatchResponse(specBytes, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(dec) != len(res) {
					t.Fatalf("decoded %d results, want %d", len(dec), len(res))
				}
				for i := range dec {
					if dec[i].OK != res[i].OK || dec[i].Found != res[i].Found ||
						dec[i].V != res[i].V || dec[i].Rows != res[i].Rows ||
						dec[i].Cols != res[i].Cols || dec[i].Err != res[i].Err {
						t.Errorf("result %d: %+v, want %+v", i, dec[i], res[i])
					}
				}
			}
		})
	}
}

// parseWireExamples extracts the named hex frames from the spec's
// ```wire-example``` fenced blocks. Block grammar: a "name: <slug>" line,
// a "hex:" line, then hex byte lines until the closing fence; "#" starts
// a comment, whitespace is insignificant.
func parseWireExamples(t *testing.T, path string) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading the wire spec: %v", err)
	}
	examples := make(map[string][]byte)
	var name string
	var hexBuf strings.Builder
	inBlock, inHex := false, false
	flush := func(line int) {
		if name == "" {
			t.Fatalf("%s: wire-example block ending at line %d has no name:", path, line)
		}
		clean := strings.Join(strings.Fields(hexBuf.String()), "")
		frame, err := hex.DecodeString(clean)
		if err != nil {
			t.Fatalf("%s: block %q: bad hex: %v", path, name, err)
		}
		if len(frame) == 0 {
			t.Fatalf("%s: block %q: empty hex", path, name)
		}
		if _, dup := examples[name]; dup {
			t.Fatalf("%s: duplicate wire-example name %q", path, name)
		}
		examples[name] = frame
		name, inBlock, inHex = "", false, false
		hexBuf.Reset()
	}
	for i, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case !inBlock && trimmed == "```wire-example":
			inBlock = true
		case inBlock && trimmed == "```":
			flush(i + 1)
		case inBlock:
			if c := strings.Index(trimmed, "#"); c >= 0 {
				trimmed = strings.TrimSpace(trimmed[:c])
			}
			switch {
			case strings.HasPrefix(trimmed, "name:"):
				name = strings.TrimSpace(strings.TrimPrefix(trimmed, "name:"))
			case trimmed == "hex:":
				inHex = true
			case inHex && trimmed != "":
				hexBuf.WriteString(trimmed)
				hexBuf.WriteByte(' ')
			}
		}
	}
	if inBlock {
		t.Fatalf("%s: unterminated wire-example block", path)
	}
	if len(examples) == 0 {
		t.Fatalf("%s: no wire-example blocks found", path)
	}
	return examples
}
