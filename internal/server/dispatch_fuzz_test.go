package server

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"anykey"
)

// fuzzWords are the arguments a FuzzDispatch argument byte below
// len(fuzzWords) picks: keys, numbers, FLEET subcommands and kill causes.
var fuzzWords = []string{"", "k", "v", "0", "1", "-1", "x", "status", "kill", "rebuild", "rmshard", "powercut", "grownbad"}

// FuzzDispatch feeds command vectors to dispatch on one session of one
// in-process 1-shard server. Per command the input holds a name byte — below 0x80 an index into
// the sorted command table (past its end: that many-minus-its-length raw
// bytes follow as the name), 0x80 set to lower-case a table name — then an
// argument-count byte (mod 6), then per argument a byte that picks one of
// fuzzWords or, past them, gives the length (mod 16) of raw bytes that
// follow. The invariants: no panic; exactly one well-formed RESP reply per
// command, which ReadReply parses back whole; and after EXEC or DISCARD the
// connection is out of MULTI.
//
// Seed corpus lives in testdata/fuzz/FuzzDispatch; go test runs the seeds
// on every invocation, `go test -fuzz=FuzzDispatch` explores.
func FuzzDispatch(f *testing.F) {
	var names []string
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	s, err := New(Config{
		Addr: "127.0.0.1:0",
		Cluster: anykey.ClusterOptions{
			Shards: 1,
			Device: anykey.Options{CapacityMB: 16, Channels: 4, ChipsPerChannel: 4},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, data []byte) {
		take := func(n int) []byte {
			n = min(n, len(data))
			b := data[:n]
			data = data[n:]
			return b
		}
		var buf bytes.Buffer
		c := &session{s: s, w: newRespWriter(&buf)}
		for cmds := 0; len(data) >= 2 && cmds < 32; cmds++ {
			nb, argc := data[0], int(data[1]%6)
			data = data[2:]
			var name []byte
			if i := int(nb & 0x7f); i < len(names) {
				name = []byte(names[i])
				if nb&0x80 != 0 {
					name = bytes.ToLower(name)
				}
			} else {
				name = take(i - len(names))
			}
			args := [][]byte{name}
			for ; argc > 0 && len(data) > 0; argc-- {
				b := int(take(1)[0])
				if b < len(fuzzWords) {
					args = append(args, []byte(fuzzWords[b]))
				} else {
					args = append(args, take((b-len(fuzzWords))%16))
				}
			}

			closing := c.dispatch(args)
			if err := c.w.Flush(); err != nil {
				t.Fatal(err)
			}
			r := newRespReader(&buf)
			if _, err := r.ReadReply(); err != nil {
				t.Fatalf("%q: reply %q does not parse: %v", args, buf.Bytes(), err)
			}
			if rest := r.buffered() + buf.Len(); rest != 0 {
				t.Fatalf("%q: %d bytes past the one reply", args, rest)
			}
			if cmd := strings.ToUpper(string(name)); (cmd == "EXEC" || cmd == "DISCARD") && c.multi {
				t.Fatalf("%q left the connection in MULTI", args)
			}
			if closing {
				return
			}
		}
	})
}
