import sys
from pathlib import Path

from hypothesis import settings

# Allow running pytest from a fresh checkout without installing the package.
sys.path.insert(0, str(Path(__file__).parent / "src"))

# every property test draws the same examples on each run, with no deadline
settings.register_profile("negmul", derandomize=True, deadline=None)
settings.load_profile("negmul")
