import sys
from pathlib import Path

# Make the suite runnable straight from a checkout, installed or not.
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the hypothesis tests skip themselves
    pass
else:
    # The same examples on every run, whatever the host's speed, and no
    # example database.
    settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
    settings.load_profile("reproducible")
