"""Unit tests for Table-1 configuration parsing and labels."""

import pytest

from repro.parcelport import ALL_LCI_VARIANTS, PPConfig, TABLE1


def test_parse_baseline_lci():
    c = PPConfig.parse("lci")
    assert c.backend == "lci"
    assert c.protocol == "psr"
    assert c.completion == "cq"
    assert c.progress == "pin"
    assert not c.immediate
    assert c.label == "lci_psr_cq_pin"


def test_parse_full_variant():
    c = PPConfig.parse("lci_sr_sy_mt_i")
    assert (c.protocol, c.completion, c.progress, c.immediate) == \
        ("sr", "sy", "worker", True)
    assert c.label == "lci_sr_sy_mt_i"


def test_parse_rp_alias_for_pin():
    assert PPConfig.parse("lci_psr_cq_rp_i") == PPConfig.parse(
        "lci_psr_cq_pin_i")


def test_parse_worker_alias_for_mt():
    assert PPConfig.parse("lci_psr_cq_worker") == PPConfig.parse(
        "lci_psr_cq_mt")


def test_parse_mpi_variants():
    assert PPConfig.parse("mpi").label == "mpi"
    assert PPConfig.parse("mpi_i").immediate
    orig = PPConfig.parse("mpi_orig")
    assert orig.mpi_variant == "original"
    assert orig.label == "mpi_orig"


def test_label_roundtrip_for_all_variants():
    for spec in ALL_LCI_VARIANTS + ["mpi", "mpi_i", "mpi_orig",
                                    "lci_psr_cq_pin"]:
        assert PPConfig.parse(spec).label == spec


def test_parse_rejects_unknown_tokens():
    with pytest.raises(ValueError):
        PPConfig.parse("lci_bogus")
    with pytest.raises(ValueError):
        PPConfig.parse("ucx")
    with pytest.raises(ValueError):
        PPConfig.parse("")


def test_parse_tcp_backend():
    # there is no TCP backend: its specs are refused like any other
    # unknown backend, not mapped onto MPI or LCI
    for spec in ("tcp", "tcp_i", "tcp_orig"):
        with pytest.raises(ValueError, match="must start with mpi/lci"):
            PPConfig.parse(spec)
    with pytest.raises(ValueError):
        PPConfig(backend="tcp")


def test_parse_rejects_lci_tokens_on_mpi():
    with pytest.raises(ValueError):
        PPConfig.parse("mpi_psr")
    with pytest.raises(ValueError):
        PPConfig.parse("mpi_cq_i")


@pytest.mark.parametrize("spec", ["lci_orig", "lci_psr_orig_i"])
def test_parse_rejects_orig_on_lci(spec):
    # orig selects an MPI variant: an LCI spec must refuse it, not drop it
    with pytest.raises(ValueError, match="orig token is MPI-only"):
        PPConfig.parse(spec)


def test_invalid_field_values_rejected():
    with pytest.raises(ValueError):
        PPConfig(backend="ucx")
    with pytest.raises(ValueError):
        PPConfig(protocol="put")
    with pytest.raises(ValueError):
        PPConfig(completion="handler")
    with pytest.raises(ValueError):
        PPConfig(progress="both")


def test_all_lci_variants_enumeration():
    assert len(ALL_LCI_VARIANTS) == 8
    assert len(set(ALL_LCI_VARIANTS)) == 8
    for v in ALL_LCI_VARIANTS:
        assert v.endswith("_i")


def test_table1_contents_match_paper():
    assert TABLE1["psr"] == "Use the putsendrecv protocol"
    assert TABLE1["cq"] == "Use completion queue as the completion type"
    assert TABLE1["pin"] == "Use a pinned dedicated progress thread"
    assert TABLE1["mt"] == "Use all worker threads to make progress"
    assert TABLE1["i"] == "Enable the send immediate optimization"
    assert set(TABLE1) == {"mpi", "lci", "sr", "psr", "sy", "cq",
                           "pin", "mt", "i"}


def test_with_override():
    c = PPConfig.parse("lci_psr_cq_pin")
    c2 = c.with_(immediate=True)
    assert c2.label == "lci_psr_cq_pin_i"
    assert not c.immediate


# ----------------------------------------------------------------------
# backend-field normalization + canonical_name round-trips


def test_mpi_normalizes_lci_only_fields():
    assert PPConfig(backend="mpi", protocol="sr",
                    progress="worker") == PPConfig(backend="mpi")
    # and the mpi_variant field is LCI-inert the other way round
    assert PPConfig(backend="lci", mpi_variant="original") == \
        PPConfig(backend="lci")


def test_normalized_label_parse_roundtrip():
    # The historical lossy case: a non-LCI config carrying non-default
    # LCI fields used to produce a label that parsed back to a
    # *different* config.  Normalization closes the loop.
    c = PPConfig(backend="mpi", protocol="sr", completion="sy",
                 progress="worker", immediate=True)
    assert PPConfig.parse(c.label) == c


def test_canonical_name_roundtrip_all_families():
    specs = ALL_LCI_VARIANTS + [
        "lci_psr_cq_pin", "lci_sr_cq_pin", "lci_psr_sy_mt",
        "mpi", "mpi_i", "mpi_orig", "mpi_orig_i",
    ]
    for spec in specs:
        c = PPConfig.parse(spec)
        assert c.canonical_name == spec
        assert PPConfig.parse(c.canonical_name) == c


def test_canonical_name_roundtrip_constructed():
    # Every constructible config round-trips through its canonical name.
    for backend in ("lci", "mpi"):
        for immediate in (False, True):
            c = PPConfig(backend=backend, immediate=immediate)
            assert PPConfig.parse(c.canonical_name) == c
