"""Black-box model variants: scoring, training, gradients, persistence."""
import numpy as np
import pytest

from fairlime import (DataError, LogisticModel, MLP, ModelFormatError,
                      TabularDataset, ThresholdOracle, TrainConfig, accuracy,
                      gradient_check, load_model, save_model, train_mlp)
from fairlime.models import VARIANT_MLP3


def oracle():
    return ThresholdOracle(boundary_majority=5.0, boundary_minority=6.0,
                           group_col=0, x1_col=2)


def separable_dataset(n=400, seed=0):
    """Two features (group, x0) with the label determined by x0's sign."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(float)
    g = (rng.random(n) < 0.4).astype(float)
    x0 = rng.normal(0.0, 1.0, n) + np.where(y == 1.0, 2.0, -2.0)
    rows = np.column_stack([g, x0, y])
    return TabularDataset(("g", "x0", "y"), rows, group_col=0, label_col=2)


def test_oracle_hand_cases():
    f = oracle()
    X = np.array([
        [0.0, 0.0, 6.5],
        [1.0, 0.0, 5.5],
        [0.0, 0.0, 5.5],
        [1.0, 0.0, 4.0],
    ])
    assert np.array_equal(f.score(X), [1.0, 1.0, 0.0, 0.0])


def test_oracle_score_equals_predict():
    f = oracle()
    rng = np.random.default_rng(1)
    X = np.column_stack([
        (rng.random(200) < 0.5).astype(float),
        rng.standard_normal(200),
        rng.uniform(2.0, 9.0, 200),
    ])
    assert np.array_equal(f.score(X), f.predict(X))


def test_oracle_validation():
    f = oracle()
    with pytest.raises(DataError, match="outside"):
        f.score(np.array([[0.5, 0.0, 6.0]]))
    with pytest.raises(DataError, match="differ"):
        ThresholdOracle(group_col=1, x1_col=1)


@pytest.mark.parametrize("group_col, x1_col", [(0, -1), (-3, 2), (0, -3)])
def test_oracle_rejects_a_negative_column(group_col, x1_col):
    with pytest.raises(DataError, match="must be nonnegative"):
        ThresholdOracle(group_col=group_col, x1_col=x1_col)


@pytest.mark.parametrize("group_col, x1_col, name, col", [
    (0, 3, "x1", 3), (4, 1, "group", 4)])
def test_oracle_rejects_a_column_past_the_input(group_col, x1_col, name, col):
    f = ThresholdOracle(group_col=group_col, x1_col=x1_col)
    with pytest.raises(DataError, match=f"oracle {name} column {col} is out "
                                        "of range for an input with 3 columns"):
        f.score(np.array([[0.0, 1.0, 6.0]]))


def test_logistic_zero_weights_scores_half():
    f = LogisticModel(np.zeros(3), 0.0)
    X = np.random.default_rng(0).standard_normal((50, 3))
    assert np.all(f.score(X) == 0.5)
    assert np.all(f.predict(X) == 1.0)


def test_logistic_hand_value():
    f = LogisticModel(np.array([1.0, 0.0, 0.0]), 0.0)
    score = f.score(np.array([[2.0, 9.0, -4.0]]))[0]
    assert abs(score - 0.8807970779778823) < 1e-12


def test_logistic_dimension_mismatch():
    f = LogisticModel(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(DataError, match="columns"):
        f.score(np.zeros((3, 3)))


@pytest.mark.parametrize("make", [
    oracle,
    lambda: LogisticModel(np.array([0.3, -1.2, 0.5]), 0.2),
    lambda: MLP.initialize(3, (6, 4), np.random.default_rng(5)),
])
def test_score_range_and_threshold_invariant(make):
    f = make()
    rng = np.random.default_rng(11)
    X = np.column_stack([
        (rng.random(1000) < 0.5).astype(float),
        rng.standard_normal(1000) * 3.0,
        rng.standard_normal(1000) * 3.0 + 5.0,
    ])
    s = f.score(X)
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert np.array_equal(f.predict(X), (s >= 0.5).astype(float))


def test_train_mlp_reaches_high_accuracy():
    ds = separable_dataset()
    cfg = TrainConfig(epochs=25, seed=0)
    model = train_mlp(ds, cfg)
    assert accuracy(model.predict(ds.features), ds.labels) >= 0.95
    assert len(model.loss_history) == 25


def test_train_mlp_zero_epochs_returns_initialization():
    ds = separable_dataset()
    cfg = TrainConfig(epochs=0, hidden_widths=(6, 4), seed=3)
    model = train_mlp(ds, cfg)
    fresh = MLP.initialize(ds.features.shape[1], (6, 4),
                           np.random.default_rng(3))
    assert np.array_equal(model.flat_params(), fresh.flat_params())
    assert model.loss_history == []


def test_train_mlp_deterministic():
    ds = separable_dataset()
    cfg = TrainConfig(epochs=5, seed=7)
    a = train_mlp(ds, cfg)
    b = train_mlp(ds, cfg)
    assert np.array_equal(a.flat_params(), b.flat_params())
    assert a.loss_history == b.loss_history


def test_train_mlp_full_batch_loss_monotone():
    ds = separable_dataset(n=200)
    cfg = TrainConfig(epochs=30, batch_size=200, learning_rate=0.05, seed=1)
    model = train_mlp(ds, cfg)
    history = model.loss_history
    assert all(b <= a + 1e-6 for a, b in zip(history, history[1:]))


def test_train_mlp_requires_labels_and_both_classes():
    ds = separable_dataset()
    unlabeled = TabularDataset(("g", "x0"), ds.rows[:, :2], group_col=0)
    with pytest.raises(DataError, match="label"):
        train_mlp(unlabeled, TrainConfig())
    rows = ds.rows.copy()
    rows[:, 2] = 1.0
    single = TabularDataset(("g", "x0", "y"), rows, group_col=0, label_col=2)
    with pytest.raises(DataError, match="each class"):
        train_mlp(single, TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(hidden_widths=(4,))
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


def random_batch(rng, n=40, d=3):
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.5).astype(float)
    return X, y


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    model = MLP.initialize(3, (5, 4), rng)
    X, y = random_batch(rng)
    for _ in range(20):
        model.set_flat_params(rng.standard_normal(model.flat_params().size))
        assert gradient_check(model, X, y) < 1e-4


def test_mlp_gradient_invariant_under_batch_duplication():
    rng = np.random.default_rng(4)
    model = MLP.initialize(3, (5, 4), rng)
    X, y = random_batch(rng)
    single = model.flat_gradient(X, y)
    doubled = model.flat_gradient(np.vstack([X, X]), np.concatenate([y, y]))
    assert np.allclose(single, doubled, rtol=1e-12, atol=1e-15)


def test_mlp_gradient_zero_params_balanced_batch():
    model = MLP.initialize(2, (4, 3), np.random.default_rng(0))
    model.set_flat_params(np.zeros(model.flat_params().size))
    X = np.random.default_rng(1).standard_normal((10, 2))
    y = np.array([1.0, 0.0] * 5)
    grads = model.gradient(X, y)
    assert grads[5] == 0.0
    assert np.all(grads[4] == 0.0)


def test_mlp_gradient_rejects_empty_batch():
    model = MLP.initialize(2, (4, 3), np.random.default_rng(0))
    with pytest.raises(DataError):
        model.gradient(np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("make", [
    oracle,
    lambda: LogisticModel(np.array([0.25, -1.5, 1e-17]), -0.75),
    lambda: MLP.initialize(3, (5, 4), np.random.default_rng(9)),
])
def test_save_load_round_trip(make, tmp_path):
    f = make()
    path = tmp_path / "model.txt"
    save_model(f, path)
    g = load_model(path)
    rng = np.random.default_rng(13)
    X = np.column_stack([
        (rng.random(100) < 0.5).astype(float),
        rng.standard_normal(100),
        rng.uniform(2.0, 9.0, 100),
    ])
    assert np.array_equal(f.score(X), g.score(X))


def test_load_model_truncated_file(tmp_path):
    model = MLP.initialize(2, (3, 2), np.random.default_rng(0))
    path = tmp_path / "model.txt"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_model_cross_variant(tmp_path):
    path = tmp_path / "model.txt"
    save_model(oracle(), path)
    with pytest.raises(ModelFormatError, match="expected"):
        load_model(path, expected_variant=VARIANT_MLP3)


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("format: something-else\n", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="not a recognized"):
        load_model(path)
    path.write_text("just some text\n", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_model_wrong_version(tmp_path):
    path = tmp_path / "model.txt"
    save_model(oracle(), path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("format_version: 1", "format_version: 99"),
                    encoding="utf-8")
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_accuracy_validation():
    with pytest.raises(DataError):
        accuracy(np.zeros(3), np.zeros(4))
    assert accuracy(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == 0.5
