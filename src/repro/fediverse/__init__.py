"""A self-contained Fediverse (Mastodon/Pleroma) simulator.

The paper measured the live Fediverse over HTTPS.  This package provides
the offline substitute: a population of instances with users, toots,
follows, federation, hosting metadata, TLS certificates and an outage
process, exposed through the same API surface the paper crawled
(``/api/v1/instance``, federated timelines, follower pages).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".entities": (
            "ActivityPolicy",
            "ActivityType",
            "Category",
            "Follow",
            "InstanceDescriptor",
            "OperatorType",
            "RegistrationPolicy",
            "Software",
            "Toot",
            "User",
            "UserRef",
            "Visibility",
        ),
        ".geo": ("AutonomousSystem", "GeoDatabase", "GeoRecord", "WELL_KNOWN_ASES"),
        ".certificates": ("Certificate", "CertificateRegistry", "CERTIFICATE_AUTHORITIES"),
        ".uptime": ("AvailabilitySchedule", "Outage", "OutageCause"),
        ".instance": ("InstanceServer",),
        ".network": ("FediverseNetwork",),
        ".presets": ("ScenarioConfig", "preset_names", "scenario_config"),
        ".workload": ("ScenarioGenerator", "build_scenario"),
        ".columnar": ("ColumnarScenario", "ColumnarScenarioGenerator", "build_columnar_scenario"),
        ".timeline": ("ColumnarTimeline",),
    },
)
