package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGenerateSeedCorpus writes the committed seed corpora for
// FuzzDecodeTrace, FuzzInboxMatchesHeap and FuzzViewsMatchLiveStore. Run
// with WORKLOAD_GEN_CORPUS=1 after changing the seed sets in fuzz_test.go,
// inbox_test.go or views_test.go, then commit testdata/fuzz.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("WORKLOAD_GEN_CORPUS") == "" {
		t.Skip("corpus generator")
	}
	writeBody := func(target, name, body string) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte("go test fuzz v1\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write := func(target, name string, data []byte) {
		writeBody(target, name, fmt.Sprintf("[]byte(%q)\n", data))
	}
	for name, tf := range fuzzSeedTraces() {
		data, err := tf.Encode()
		if err != nil {
			t.Fatal(err)
		}
		write("FuzzDecodeTrace", name, data)
	}
	for name, data := range fuzzMalformedTraces() {
		write("FuzzDecodeTrace", name, []byte(data))
	}
	for name, data := range fuzzInboxSeeds() {
		write("FuzzInboxMatchesHeap", name, data)
	}
	for name, in := range fuzzViewsSeeds() {
		writeBody("FuzzViewsMatchLiveStore", name, fmt.Sprintf("int64(%d)\nuint8(%d)\nuint8(%d)\n", in.seed, in.nodes, in.blocks))
	}
}
