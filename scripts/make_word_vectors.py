"""Generate the pinned synthetic embedding file and lexicon shipped in data/.

The vectors are drawn so that cosine similarities carry a three-category
block structure: every word shares a common base direction, each category
adds its own direction (orthonormal to the base and to the other category
directions), and each word gets an independent noise component.  With unit
weights (b, c, n) the expected cosines are

    within category   (b^2 + c^2) / (b^2 + c^2 + n^2)
    across categories  b^2        / (b^2 + c^2 + n^2)

so the three weights set the transition-matrix contrast directly.  Vectors
are normalized and rescaled to --scale (with a small deterministic norm
jitter), which controls gradient magnitude during MLP training.

Run from the repository root:

    python scripts/make_word_vectors.py --out-dir data
"""

import argparse
from pathlib import Path

import numpy as np

WORDS = {
    "animals": {
        "train": ["dog", "cat", "horse", "cow", "sheep", "goat", "pig", "rabbit",
                  "deer", "bear", "wolf", "fox", "lion", "tiger", "elephant",
                  "monkey", "mouse", "squirrel", "otter", "eagle"],
        "validation": ["owl", "duck", "goose", "swan", "frog", "toad", "lizard",
                       "snake", "camel", "falcon"],
    },
    "vehicles": {
        "train": ["car", "truck", "bus", "van", "train", "tram", "subway",
                  "bicycle", "motorcycle", "scooter", "boat", "ship", "ferry",
                  "canoe", "kayak", "airplane", "helicopter", "glider",
                  "tractor", "jeep"],
        "validation": ["ambulance", "taxi", "trolley", "yacht", "sailboat",
                       "submarine", "rocket", "balloon", "sled", "snowmobile"],
    },
    "furniture": {
        "train": ["chair", "table", "desk", "sofa", "couch", "bench", "stool",
                  "bed", "crib", "dresser", "wardrobe", "cabinet", "bookcase",
                  "shelf", "nightstand", "ottoman", "armchair", "recliner",
                  "hammock", "sideboard"],
        "validation": ["futon", "divan", "loveseat", "cot", "bunk", "vanity",
                       "credenza", "hutch", "lectern", "chaise"],
    },
}

# vectors for these exist in the embedding file but they are not lexicon states
DISTRACTORS = ["blue", "seven", "happy", "music", "river", "stone", "cloud",
               "bread", "window", "garden"]


def build_vectors(dim, base_weight, category_weight, noise_weight, scale,
                  norm_jitter, seed):
    rng = np.random.default_rng(seed)
    # one base + one direction per category, mutually orthonormal
    raw = rng.standard_normal((1 + len(WORDS), dim))
    q, _ = np.linalg.qr(raw.T)
    base = q[:, 0]
    # lexicon words first, then the distractors, which have no category direction
    directions = [(word, q[:, 1 + i]) for i, splits in enumerate(WORDS.values())
                  for split in ("train", "validation") for word in splits[split]]
    directions += [(word, np.zeros(dim)) for word in DISTRACTORS]

    vectors = {}
    for word, direction in directions:
        noise = rng.standard_normal(dim) / np.sqrt(dim)
        v = base_weight * base + category_weight * direction + noise_weight * noise
        v /= np.linalg.norm(v)
        v *= scale * (1.0 + norm_jitter * (rng.random() - 0.5))
        vectors[word] = v
    return vectors


def write_embeddings(vectors, dim, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(vectors)} {dim}\n")
        for word, v in vectors.items():
            comps = " ".join(f"{x:.6f}" for x in v)
            fh.write(f"{word} {comps}\n")


def write_lexicon(path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("word,category,split\n")
        for split in ("train", "validation"):
            for name, splits in WORDS.items():
                for word in splits[split]:
                    fh.write(f"{word},{name},{split}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=300)
    parser.add_argument("--base-weight", type=float, default=0.05)
    parser.add_argument("--category-weight", type=float, default=0.6)
    parser.add_argument("--noise-weight", type=float, default=0.2)
    parser.add_argument("--scale", type=float, default=12.0)
    parser.add_argument("--norm-jitter", type=float, default=0.1,
                        help="relative spread of vector norms around --scale")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out-dir", default="data")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vectors = build_vectors(args.dim, args.base_weight, args.category_weight,
                            args.noise_weight, args.scale, args.norm_jitter,
                            args.seed)
    write_embeddings(vectors, args.dim, out_dir / f"embeddings_{args.dim}d.txt")
    write_lexicon(out_dir / "lexicon.csv")
    norms = np.array([np.linalg.norm(v) for v in vectors.values()])
    print(f"wrote {len(vectors)} vectors (dim {args.dim}, "
          f"norms {norms.min():.3f}..{norms.max():.3f}) to {out_dir}")


if __name__ == "__main__":
    main()
