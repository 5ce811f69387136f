package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGenerateSeedCorpus writes the committed seed corpora for
// FuzzDecodeTrace and FuzzInboxMatchesHeap. Run with WORKLOAD_GEN_CORPUS=1
// after changing the seed sets in fuzz_test.go or inbox_test.go, then
// commit testdata/fuzz.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("WORKLOAD_GEN_CORPUS") == "" {
		t.Skip("corpus generator")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
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
}
