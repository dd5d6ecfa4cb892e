#include "lp/pricing.hpp"

namespace suu::lp::pricing {

bool parse_pricing_rule(std::string_view name, PricingRule* out) {
  if (name == "auto") {
    *out = PricingRule::Auto;
  } else if (name == "dantzig") {
    *out = PricingRule::Dantzig;
  } else if (name == "devex") {
    *out = PricingRule::Devex;
  } else {
    return false;
  }
  return true;
}

}  // namespace suu::lp::pricing
