"""The JSON examples in README.md parse with the readers they document."""

import re
from pathlib import Path

from gradreg.engine import RegistrationConfig
from gradreg.phantom import AnalyticWarp, PhantomSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The text of README's ``### title`` section, up to the next heading."""
    return README.read_text().split(f"### {title}\n", 1)[1].split("\n#", 1)[0]


def json_block(text: str) -> str:
    return re.search(r"```json\n(.*?)```", text, re.S).group(1)


def test_readme_config_example_is_the_default_config():
    """"Omitted keys take the defaults above": the example lists the defaults."""
    text = json_block(section("Config file"))
    assert RegistrationConfig.from_json(text) == RegistrationConfig()


def test_readme_phantom_spec_and_warp_examples_parse():
    text = section("Phantom spec")
    spec = PhantomSpec.from_json(json_block(text))
    assert spec.dims == (48, 48, 48) and len(spec.ellipsoids) == 1
    warps = [AnalyticWarp.from_json(w) for w in re.findall(r"`(\{.*?\})`", text, re.S)]
    assert [w.kind for w in warps] == ["sinusoidal", "translation"]
