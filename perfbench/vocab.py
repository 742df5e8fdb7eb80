"""Seeded synthetic vocabulary: an embedding file and a lexicon of any size.

Uses the geometry of `scripts/make_word_vectors.py` (a shared base direction,
one orthonormal direction per category, per-word noise, vectors rescaled to a
common norm with a small jitter) but takes the number of training words,
validation words and categories as inputs, so the benchmark can build
vocabularies the script's fixed word list cannot. The same arguments give
byte-identical files.

    python3 perfbench/vocab.py --train 240 --validation 60 --categories 6 \
        --seed 1 --out-dir /tmp/vocab
"""

import argparse
from pathlib import Path

import numpy as np

DIM = 300
BASE_WEIGHT = 0.05
CATEGORY_WEIGHT = 0.6
NOISE_WEIGHT = 0.2
SCALE = 12.0
NORM_JITTER = 0.1


def build_vocabulary(n_train, n_validation, n_categories, seed):
    """Returns (vectors, lexicon rows) with words spread evenly over the categories.

    Lexicon rows are (word, category, split), training words first, each
    split ordered by category, as in the shipped `data/lexicon.csv`.
    """
    if n_categories < 2:
        raise ValueError("need at least 2 categories")
    if n_train < 2 * n_categories or n_validation < 2 * n_categories:
        raise ValueError("need at least 2 training and 2 validation words per category")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((1 + n_categories, DIM)).T)
    base = q[:, 0]
    categories = [f"k{c}" for c in range(n_categories)]

    vectors, rows = {}, []
    for split, count, letter in (("train", n_train, "t"), ("validation", n_validation, "v")):
        for c, category in enumerate(categories):
            # category c gets words c, c + K, c + 2K, ... of the split
            for i in range(c, count, n_categories):
                word = f"{category}_{letter}{i:04d}"
                noise = rng.standard_normal(DIM) / np.sqrt(DIM)
                v = BASE_WEIGHT * base + CATEGORY_WEIGHT * q[:, 1 + c] + NOISE_WEIGHT * noise
                v *= SCALE * (1.0 + NORM_JITTER * (rng.random() - 0.5)) / np.linalg.norm(v)
                vectors[word] = v
                rows.append((word, category, split))
    return vectors, rows


def write_vocabulary(out_dir, n_train, n_validation, n_categories, seed):
    """Write `embeddings.txt` and `lexicon.csv` into out_dir; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vectors, rows = build_vocabulary(n_train, n_validation, n_categories, seed)
    embeddings = out_dir / "embeddings.txt"
    lexicon = out_dir / "lexicon.csv"
    with open(embeddings, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(vectors)} {DIM}\n")
        for word, v in vectors.items():
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in v) + "\n")
    with open(lexicon, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("word,category,split\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return embeddings, lexicon


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train", type=int, required=True, help="training words")
    parser.add_argument("--validation", type=int, required=True, help="validation words")
    parser.add_argument("--categories", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    paths = write_vocabulary(args.out_dir, args.train, args.validation, args.categories, args.seed)
    print("wrote " + " and ".join(str(p) for p in paths))


if __name__ == "__main__":
    main()
