package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/features"
	"repro/internal/ml"
)

var update = flag.Bool("update", false, "rewrite testdata/model_digest.json from the current pipeline")

const modelDigestPath = "testdata/model_digest.json"

// modelDigest is the SHA-256 of each serialized detector.
type modelDigest struct {
	Level1 string `json:"level1"`
	Level2 string `json:"level2"`
}

// TestTrainedModelDigest pins the bytes of both models that
// `trainer -bases 60 -seed 3` writes (cmd/trainer's options), so the corpus
// generator, the transforms, the parser, the feature extractor and the
// forests together cannot change a trained model unnoticed. Regenerate only
// for an intended change to what is trained:
//
//	go test ./internal/core -run TestTrainedModelDigest -update
func TestTrainedModelDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping end-to-end training in -short mode")
	}
	tr, err := Train(TrainConfig{NumRegular: 60, Options: Options{
		Features: features.Options{NGramDims: 1024},
		Forest: ml.ForestOptions{
			NumTrees: 40,
			Parallel: true,
			Tree:     ml.TreeOptions{MTry: 128},
		},
		Seed: 3,
	}})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	sum := func(d *Detector) string {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		h := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(h[:])
	}
	got := modelDigest{Level1: sum(tr.Level1), Level2: sum(tr.Level2)}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(modelDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelDigestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", modelDigestPath)
		return
	}

	data, err := os.ReadFile(modelDigestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want modelDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode %s: %v", modelDigestPath, err)
	}
	if got != want {
		t.Errorf("trained models changed:\n got %+v\nwant %+v", got, want)
	}
}
