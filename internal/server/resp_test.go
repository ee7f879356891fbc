package server

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func cmdReader(s string) *respReader {
	return newRespReader(strings.NewReader(s))
}

func TestReadCommandArray(t *testing.T) {
	r := cmdReader("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n")
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("SET"), []byte("k"), []byte("hello")}
	if len(args) != len(want) {
		t.Fatalf("got %d args", len(args))
	}
	for i := range want {
		if !bytes.Equal(args[i], want[i]) {
			t.Fatalf("arg %d = %q, want %q", i, args[i], want[i])
		}
	}
	if _, err := r.ReadCommand(); err != io.EOF {
		t.Fatalf("expected EOF after last command, got %v", err)
	}
}

func TestReadCommandInline(t *testing.T) {
	r := cmdReader("PING\r\n\r\nSET key  value\nGET key\r\n")
	for i, want := range [][]string{
		{"PING"},
		{"SET", "key", "value"}, // blank line skipped, runs of spaces collapse
		{"GET", "key"},
	} {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if len(args) != len(want) {
			t.Fatalf("command %d: %q", i, args)
		}
		for j := range want {
			if string(args[j]) != want[j] {
				t.Fatalf("command %d arg %d = %q, want %q", i, j, args[j], want[j])
			}
		}
	}
}

func TestReadCommandPipelined(t *testing.T) {
	r := cmdReader("*1\r\n$4\r\nPING\r\n*2\r\n$4\r\nECHO\r\n$2\r\nhi\r\n")
	a, err := r.ReadCommand()
	if err != nil || string(a[0]) != "PING" {
		t.Fatalf("first: %q, %v", a, err)
	}
	if r.buffered() == 0 {
		t.Fatal("second pipelined command not buffered")
	}
	b, err := r.ReadCommand()
	if err != nil || string(b[0]) != "ECHO" || string(b[1]) != "hi" {
		t.Fatalf("second: %q, %v", b, err)
	}
}

func TestReadCommandMalformed(t *testing.T) {
	cases := map[string]string{
		"null array":        "*-1\r\n",
		"empty array":       "*0\r\n",
		"huge array":        "*99999999\r\n",
		"bad array count":   "*x\r\n",
		"null bulk in cmd":  "*1\r\n$-1\r\n",
		"negative bulk len": "*1\r\n$-3\r\nabc\r\n",
		"oversized bulk":    "*1\r\n$16777217\r\n",
		"bad bulk length":   "*1\r\n$zz\r\n",
		"missing crlf":      "*1\r\n$3\r\nabcXY",
		"wrong elem type":   "*1\r\n:5\r\n",
	}
	for name, input := range cases {
		_, err := cmdReader(input).ReadCommand()
		if err == nil {
			t.Errorf("%s: no error", name)
			continue
		}
		if !errors.Is(err, ErrProtocol) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: error %v is neither protocol nor truncation", name, err)
		}
	}
}

func TestReadCommandTruncated(t *testing.T) {
	// Cut an array command at every byte boundary: each prefix must yield
	// either a clean EOF (nothing consumed yet) or an unexpected-EOF — never
	// a successful parse and never a hang.
	full := "*2\r\n$3\r\nGET\r\n$5\r\nmykey\r\n"
	for i := 1; i < len(full); i++ {
		_, err := cmdReader(full[:i]).ReadCommand()
		if err == nil {
			t.Fatalf("prefix %q parsed successfully", full[:i])
		}
	}
}

func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := newRespWriter(&buf)
	w.WriteSimple("OK")
	w.WriteError("ERR boom")
	w.WriteInt(-42)
	w.WriteBulk([]byte("payload"))
	w.WriteBulk(nil)
	w.WriteArrayHeader(2)
	w.WriteBulk([]byte("a"))
	w.WriteBulk([]byte("b"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := newRespReader(&buf)
	rp, err := r.ReadReply()
	if err != nil || rp.Kind != '+' || rp.Str != "OK" {
		t.Fatalf("simple: %+v, %v", rp, err)
	}
	rp, err = r.ReadReply()
	if err != nil || rp.Kind != '-' || rp.Str != "ERR boom" {
		t.Fatalf("error: %+v, %v", rp, err)
	}
	if rp.Err() == nil {
		t.Fatal("error reply did not convert to error")
	}
	rp, err = r.ReadReply()
	if err != nil || rp.Kind != ':' || rp.Int != -42 {
		t.Fatalf("int: %+v, %v", rp, err)
	}
	rp, err = r.ReadReply()
	if err != nil || rp.Kind != '$' || string(rp.Bulk) != "payload" {
		t.Fatalf("bulk: %+v, %v", rp, err)
	}
	rp, err = r.ReadReply()
	if err != nil || !rp.Null {
		t.Fatalf("null bulk: %+v, %v", rp, err)
	}
	rp, err = r.ReadReply()
	if err != nil || rp.Kind != '*' || len(rp.Array) != 2 ||
		string(rp.Array[0].Bulk) != "a" || string(rp.Array[1].Bulk) != "b" {
		t.Fatalf("array: %+v, %v", rp, err)
	}
}

func TestWriterSanitizesControlCharacters(t *testing.T) {
	var buf bytes.Buffer
	w := newRespWriter(&buf)
	w.WriteError("ERR key\r\ncontains newline")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rp, err := newRespReader(&buf).ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '-' || strings.ContainsAny(rp.Str, "\r\n") {
		t.Fatalf("sanitization failed: %+v", rp)
	}
}

func TestReplyText(t *testing.T) {
	cases := []struct {
		rp   Reply
		want string
	}{
		{Reply{Kind: '+', Str: "OK"}, "OK"},
		{Reply{Kind: '-', Str: "ERR x"}, "(error) ERR x"},
		{Reply{Kind: ':', Int: 7}, "7"},
		{Reply{Kind: '$', Null: true}, "(nil)"},
		{Reply{Kind: '$', Bulk: []byte("v")}, "v"},
		{Reply{Kind: '*', Array: []Reply{{Kind: ':', Int: 1}, {Kind: '$', Bulk: []byte("x")}}}, "1) 1\n2) x"},
	}
	for _, c := range cases {
		if got := c.rp.Text(); got != c.want {
			t.Errorf("Text(%+v) = %q, want %q", c.rp, got, c.want)
		}
	}
}

func TestReplyNestingLimit(t *testing.T) {
	deep := strings.Repeat("*1\r\n", maxReplyDepth+2) + ":1\r\n"
	if _, err := cmdReader(deep).ReadReply(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("deep nesting: %v", err)
	}
}

// The RESP codec's allocations per frame, pinned at what they are: with the
// devices out of the write path's profile, parsing and rendering frames is
// what a request costs the server, and a stray allocation here is paid on
// every one. A command costs its argument slice plus one copy per argument
// (arguments outlive the read buffer); replies render into the buffered
// writer and cost only what strconv needs for a length or integer of three
// digits or more.
func TestCodecAllocations(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 100)
	pipelined := []byte("*3\r\n$3\r\nSET\r\n$8\r\nkey:0001\r\n$100\r\n" + string(value) + "\r\n" +
		"*2\r\n$3\r\nGET\r\n$8\r\nkey:0001\r\n")
	src := bytes.NewReader(nil)
	r := newRespReader(src)
	parse := testing.AllocsPerRun(200, func() {
		src.Reset(pipelined)
		r.br.Reset(src)
		set, err := r.ReadCommand()
		if err != nil || len(set) != 3 {
			t.Fatalf("SET parsed as %q, %v", set, err)
		}
		get, err := r.ReadCommand()
		if err != nil || len(get) != 2 {
			t.Fatalf("GET parsed as %q, %v", get, err)
		}
	})
	// SET: 1 slice + 3 arguments; GET: 1 slice + 2 arguments.
	if parse != 7 {
		t.Errorf("parsing a pipelined SET and GET allocates %v times, pinned at 7", parse)
	}

	w := newRespWriter(io.Discard)
	key := []byte("key:0001")
	for _, tc := range []struct {
		name   string
		pinned float64
		write  func()
	}{
		{"bulk", 1, func() { w.WriteBulk(value) }}, // the length's digits
		{"null bulk", 0, func() { w.WriteBulk(nil) }},
		{"small integer", 0, func() { w.WriteInt(42) }},
		{"integer", 1, func() { w.WriteInt(1234567) }},
		{"array of two bulks", 0, func() {
			w.WriteArrayHeader(2)
			w.WriteBulk(key)
			w.WriteBulk(nil)
		}},
	} {
		got := testing.AllocsPerRun(200, func() {
			tc.write()
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.pinned {
			t.Errorf("encoding a %s reply allocates %v times, pinned at %v", tc.name, got, tc.pinned)
		}
	}
}
