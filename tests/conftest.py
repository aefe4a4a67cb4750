import pytest
from hypothesis import settings

from linepack.fixtures import named_group
from linepack.permgroup import GroupAction, PermutationGroup, induced_pair_action, regular_action
from linepack.scheme import conjugacy_class_scheme, scheme_from_action


# Property suites draw the same examples on every run and take no deadline,
# so their results and run times repeat on a shared, busy machine.
settings.register_profile("linepack", derandomize=True, deadline=None)
settings.load_profile("linepack")


S3, S4, D4 = named_group("s3"), named_group("s4"), named_group("d4")
Q8 = PermutationGroup.from_cycles(8, ["(0 1 2 3)(4 6 5 7)", "(0 4 2 5)(1 7 3 6)"])


def build_fixture_actions():
    """The transitive actions behind the battery's action schemes."""
    return {
        "s3_natural": GroupAction(S3),
        "s4_natural": GroupAction(S4),
        "d4_natural": GroupAction(D4),
        "z3_regular": regular_action(named_group("z3")),
        "z4_regular": regular_action(named_group("z4")),
        "z7_regular": regular_action(named_group("z7")),
        "s3_regular": regular_action(S3),
        "s3_pairs": induced_pair_action(GroupAction(S3)),
        "s4_pairs": induced_pair_action(GroupAction(S4)),
        "z6_regular": regular_action(named_group("z6")),
    }


def build_fixture_schemes():
    """The scheme battery the property suites run over (>= 10 schemes)."""
    schemes = {name: scheme_from_action(action) for name, action in build_fixture_actions().items()}
    schemes["s3_classes"] = conjugacy_class_scheme(S3)
    schemes["q8_classes"] = conjugacy_class_scheme(Q8)
    return schemes


@pytest.fixture(scope="session")
def fixture_actions():
    return build_fixture_actions()


@pytest.fixture(scope="session")
def fixture_schemes():
    return build_fixture_schemes()
