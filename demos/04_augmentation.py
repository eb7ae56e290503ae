"""Walkthrough: balancing an imbalanced training set two ways.

SMOTE interpolates between minority neighbors; the autoencoder route fits a
compact latent model of the minority class and samples from it. Both
equalize the 364:63 class split and tag synthetic rows with their origin.
"""

import numpy as np

from hornnet.augment import AUTOENCODER_WIDTHS, SmoteConfig, balance_with_autoencoder, smote
from hornnet.datakit import SynthConfig, generate_synthetic
from hornnet.evalharness import correlation_table

train, _ = generate_synthetic(SynthConfig(seed=1))
print(f"original class counts: {train.class_counts()}")

smoted = smote(train, SmoteConfig(seed=1))
print(f"\nafter SMOTE:           {smoted.class_counts()}")
print(f"  synthetic rows appended: {(smoted.origin == 'smote').sum()}")

ae_balanced = balance_with_autoencoder(train, seed=1)
print(f"after autoencoder:     {ae_balanced.class_counts()}")
print(f"  synthetic rows appended: {(ae_balanced.origin == 'autoencoder').sum()}")

# the autoencoder's layers, from the features through the latent code and back
widths = (*AUTOENCODER_WIDTHS, train.n_features)
print(f"\nautoencoder layer widths: {train.n_features} -> {' -> '.join(map(str, widths))}")

print("\nhow augmentation shifts the feature/label correlations:")
table, _ = correlation_table([("original", train), ("smote", smoted), ("autoencoder", ae_balanced)])
header = f"{'feature':<14}{'original':>10}{'smote':>10}{'autoenc':>10}"
print(header)
for feature, row in table.items():
    print(f"{feature:<14}{row['original']:>10.3f}{row['smote']:>10.3f}{row['autoencoder']:>10.3f}")

# synthetic rows stay inside the observed envelope of the real data
for name, balanced in (("smote", smoted), ("autoencoder", ae_balanced)):
    new = balanced.rows[train.n_rows:]
    inside = np.all(new >= train.rows.min(axis=0)) and np.all(new <= train.rows.max(axis=0))
    print(f"\n{name} synthetic rows within observed feature ranges: {inside}")
